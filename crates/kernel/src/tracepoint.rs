//! Statically-defined tracepoints (USDT-style markers).
//!
//! TScout's markers compile to NOP instructions plus metadata; when the
//! program starts, the OS patches the NOPs so that hitting an *enabled*
//! marker traps into the kernel and runs the attached BPF programs (paper
//! §3.1). We model the registry, enable/disable patching, and attachment
//! lists. Actually executing the attached programs is the responsibility of
//! the caller (the `tscout` crate owns the BPF VM), which keeps this crate
//! free of a dependency cycle — the kernel only reports *which* programs to
//! run and charges the mode-switch cost.

use std::collections::HashMap;

/// Identifier of a registered tracepoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TracepointId(pub u32);

/// Identifier of a loaded BPF program, assigned by the loader in `tscout-bpf`.
pub type AttachedProgId = u64;

/// Arguments passed from the marker site into attached programs.
///
/// TScout markers support passing qualifiers for an OU (paper §3.2), e.g.
/// which file descriptor or socket to monitor, the OU id, and a pointer to
/// the user-space feature buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TracepointArgs {
    /// Up to six scalar arguments, like real tracepoint/probe ABIs.
    pub regs: [u64; 6],
    /// Optional user-space buffer captured at the marker (feature payloads).
    pub user_buf: Vec<u64>,
}

/// A registered static tracepoint.
#[derive(Debug, Clone)]
pub struct Tracepoint {
    pub id: TracepointId,
    /// Provider/name pair, e.g. `("noisetap", "seqscan_begin")`.
    pub provider: String,
    pub name: String,
    /// Whether the site has been patched live. Disabled tracepoints are NOPs
    /// and cost (almost) nothing to pass over.
    pub enabled: bool,
    /// Programs to run when the tracepoint fires, in attach order.
    pub attached: Vec<AttachedProgId>,
}

/// The kernel's tracepoint table.
#[derive(Debug, Default)]
pub struct TracepointRegistry {
    by_id: Vec<Tracepoint>,
    by_name: HashMap<(String, String), TracepointId>,
}

impl TracepointRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new tracepoint site (compile-time marker metadata).
    /// Registering the same provider/name twice returns the existing id.
    pub fn register(&mut self, provider: &str, name: &str) -> TracepointId {
        let key = (provider.to_string(), name.to_string());
        if let Some(id) = self.by_name.get(&key) {
            return *id;
        }
        // Each tracepoint owns two strings: 2^32 do not fit in memory.
        #[allow(clippy::expect_used)]
        let id =
            TracepointId(u32::try_from(self.by_id.len()).expect("fewer than 2^32 tracepoints"));
        self.by_id.push(Tracepoint {
            id,
            provider: provider.to_string(),
            name: name.to_string(),
            enabled: false,
            attached: Vec::new(),
        });
        self.by_name.insert(key, id);
        id
    }

    pub fn lookup(&self, provider: &str, name: &str) -> Option<TracepointId> {
        self.by_name
            .get(&(provider.to_string(), name.to_string()))
            .copied()
    }

    pub fn get(&self, id: TracepointId) -> Option<&Tracepoint> {
        self.by_id.get(id.0 as usize)
    }

    fn get_mut(&mut self, id: TracepointId) -> &mut Tracepoint {
        &mut self.by_id[id.0 as usize]
    }

    /// Attach a program; enables the site (patches the NOP) if it was off.
    pub fn attach(&mut self, id: TracepointId, prog: AttachedProgId) {
        let tp = self.get_mut(id);
        if !tp.attached.contains(&prog) {
            tp.attached.push(prog);
        }
        tp.enabled = true;
    }

    /// Detach a program; disables the site when no programs remain.
    pub fn detach(&mut self, id: TracepointId, prog: AttachedProgId) {
        let tp = self.get_mut(id);
        tp.attached.retain(|p| *p != prog);
        if tp.attached.is_empty() {
            tp.enabled = false;
        }
    }

    /// Detach a program from every tracepoint (unloading, §5.4).
    pub fn detach_everywhere(&mut self, prog: AttachedProgId) {
        let ids: Vec<TracepointId> = self.by_id.iter().map(|t| t.id).collect();
        for id in ids {
            self.detach(id, prog);
        }
    }

    /// Programs attached to an enabled tracepoint, or empty if disabled.
    pub fn attached_programs(&self, id: TracepointId) -> &[AttachedProgId] {
        match self.get(id) {
            Some(tp) if tp.enabled => &tp.attached,
            _ => &[],
        }
    }

    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent() {
        let mut reg = TracepointRegistry::new();
        let a = reg.register("noisetap", "seqscan_begin");
        let b = reg.register("noisetap", "seqscan_begin");
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.lookup("noisetap", "seqscan_begin"), Some(a));
        assert_eq!(reg.lookup("noisetap", "nope"), None);
    }

    #[test]
    fn attach_enables_detach_disables() {
        let mut reg = TracepointRegistry::new();
        let tp = reg.register("noisetap", "ou_begin");
        assert!(!reg.get(tp).unwrap().enabled);
        assert!(reg.attached_programs(tp).is_empty());

        reg.attach(tp, 10);
        reg.attach(tp, 11);
        reg.attach(tp, 10); // duplicate ignored
        assert!(reg.get(tp).unwrap().enabled);
        assert_eq!(reg.attached_programs(tp), &[10, 11]);

        reg.detach(tp, 10);
        assert_eq!(reg.attached_programs(tp), &[11]);
        assert!(reg.get(tp).unwrap().enabled);

        reg.detach(tp, 11);
        assert!(!reg.get(tp).unwrap().enabled);
        assert!(reg.attached_programs(tp).is_empty());
    }

    #[test]
    fn detach_everywhere_removes_program_from_all_sites() {
        let mut reg = TracepointRegistry::new();
        let a = reg.register("p", "a");
        let b = reg.register("p", "b");
        reg.attach(a, 1);
        reg.attach(b, 1);
        reg.attach(b, 2);
        reg.detach_everywhere(1);
        assert!(reg.attached_programs(a).is_empty());
        assert_eq!(reg.attached_programs(b), &[2]);
    }

    #[test]
    fn disabled_tracepoint_reports_no_programs() {
        let mut reg = TracepointRegistry::new();
        let tp = reg.register("p", "x");
        reg.attach(tp, 1);
        reg.detach(tp, 1);
        // Program list may be empty AND the site disabled — NOP again.
        assert!(reg.attached_programs(tp).is_empty());
    }
}
