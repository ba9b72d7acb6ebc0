//! Figure 12: model generalization.
//!
//! Do models trained with online data overfit their deployment? Each
//! scenario trains on one configuration and evaluates on another:
//! database size (1 ↔ 4 warehouses), hardware (laptop ↔ server), thread
//! count (1 ↔ 20), and new queries (80% of templates → held-out 20%).
//!
//! Paper shape: online data helps or at least does not hurt in almost
//! every scenario; the known exception is the disk writer when
//! generalizing to *larger* hardware (no input feature describes the
//! storage device, so models trained on the slow device overshoot).

use tscout_bench::{
    merge_data, offline_data, online_data, split_for_eval, subsystem_error_us, Csv,
    REPORTED_SUBSYSTEMS,
};
use tscout_kernel::HardwareProfile;
use tscout_models::dataset::OuData;
use tscout_models::eval::error_reduction_pct;
use tscout_workloads::Tpcc;

#[derive(Clone)]
struct Env {
    hw: HardwareProfile,
    warehouses: u64,
    terminals: usize,
}

fn collect(env: &Env, seed: u64, dur: f64) -> Vec<OuData> {
    let mut w = Tpcc::new(env.warehouses);
    online_data(env.hw.clone(), &mut w, env.terminals, seed, dur)
}

pub(crate) fn main() {
    let server = HardwareProfile::server_2x20();
    let laptop = HardwareProfile::laptop_6core();
    let base = Env {
        hw: server.clone(),
        warehouses: 4,
        terminals: 1,
    };

    let env = |hw: &HardwareProfile, w: u64, t: usize| Env {
        hw: hw.clone(),
        warehouses: w,
        terminals: t,
    };
    // (name, train environment, test environment)
    let scenarios: Vec<(&str, Env, Env)> = vec![
        ("larger_db", env(&server, 1, 1), env(&server, 4, 1)),
        ("smaller_db", env(&server, 4, 1), env(&server, 1, 1)),
        ("larger_hw", env(&laptop, 4, 1), env(&server, 4, 1)),
        ("smaller_hw", env(&server, 4, 1), env(&laptop, 4, 1)),
        ("more_threads", env(&server, 4, 1), env(&server, 4, 20)),
        ("fewer_threads", env(&server, 4, 20), env(&server, 4, 1)),
    ];

    let mut csv = Csv::create(
        "fig12_generalization.csv",
        "scenario,subsystem,offline_err_us,online_err_us,error_reduction_pct",
    );
    for (i, (name, train_env, test_env)) in scenarios.iter().enumerate() {
        // Offline runners execute in the *training* environment's hardware.
        let offline = offline_data(train_env.hw.clone(), 0xF12 + i as u64, 500e6);
        let online = collect(train_env, 0xF12A + i as u64, 500e6);
        let test = collect(test_env, 0xF12B + i as u64, 250e6);
        let augmented = merge_data(&offline, &online);
        for sub in REPORTED_SUBSYSTEMS {
            let off = subsystem_error_us(&offline, &test, sub, 9);
            let on = subsystem_error_us(&augmented, &test, sub, 9);
            csv.row(&format!(
                "{name},{sub},{off:.2},{on:.2},{:.1}",
                error_reduction_pct(off, on)
            ));
        }
    }

    // New-queries scenario: train on 80% of templates, test on the rest,
    // same environment.
    let offline = offline_data(base.hw.clone(), 0xF12F, 500e6);
    let online = collect(&base, 0xF12E, 600e6);
    let (train, test) = split_for_eval(&online, 0.2, 11);
    let augmented = merge_data(&offline, &train);
    for sub in REPORTED_SUBSYSTEMS {
        let off = subsystem_error_us(&offline, &test, sub, 9);
        let on = subsystem_error_us(&augmented, &test, sub, 9);
        csv.row(&format!(
            "new_queries,{sub},{off:.2},{on:.2},{:.1}",
            error_reduction_pct(off, on)
        ));
    }
    println!("# paper shape: online >= offline almost everywhere; disk_writer/larger_hw is the exception");
}
