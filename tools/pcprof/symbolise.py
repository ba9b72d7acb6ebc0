#!/usr/bin/env python3
"""Turn a pcprof dump into per-function shares with `addr2line -i`.

    symbolise.py run.pcprof [more.pcprof]... [--under FN]... [--focus FN] [--lines FN]
                            [--callers FN] [--sort incl|self] [--top N] [--folded]

Several dumps (runs of one build) are symbolised each against its own
mappings and counted together: the timer fires at most once per kernel
tick, so summing runs is how a table gets more stacks.

Every stack is expanded through inlined frames, so a function counts
wherever its code runs. `--under FN` keeps only stacks with a frame whose
name contains FN and cuts them there (shares are then of FN's time, e.g.
the timed region); given more than once, it keeps a stack if any of the
named frames is on it and cuts at the outermost of them, so a worker
thread's stacks, which start at the thread entry, can be counted beside
the region that spawned them. `--focus FN` lists what runs beneath FN: each function
between FN and the leaf, by the share of FN's stacks it is on. `--lines FN`
prints where FN's stacks were interrupted: the leaf `file:line` (innermost
inlined frame) of each, by share — the line a loop spends its time on.
`--callers FN` lists what runs above FN: each function between the root
(or the `--under` cut) and FN's outermost frame, by its share of all kept
stacks and of FN's. `--sort self` orders the function table by self share
instead of inclusive. `--folded` prints `root;..;leaf count` lines for a
flamegraph tool.
"""
import argparse
import collections
import re
import subprocess


def load(path):
    # A position-independent object is loaded whole from `base`: its
    # link-time address of a pc is `pc - base`.
    base, maps, stacks, cpu = {}, [], [], None
    for line in open(path):
        kind, _, rest = line.partition(" ")
        if kind == "M":
            span, perms, offset, _dev, _inode, file = rest.split(None, 5)
            lo, hi = (int(x, 16) for x in span.split("-"))
            if int(offset, 16) == 0:
                base.setdefault(file.strip(), lo)
            if "x" in perms:
                maps.append((lo, hi, file.strip()))
        elif kind == "S":
            stacks.append([int(a, 16) for a in rest.split()])
        elif kind == "T":
            seconds, us = rest.split()
            cpu = (float(seconds), int(us))
    return [(lo, hi, base.get(file, 0), file) for lo, hi, file in maps], stacks, cpu


def source_line(text):
    """`/a/b/src/exec/mod.rs:632 (discriminator 2)` -> `exec/mod.rs:632`."""
    path, _, line = text.split(" ")[0].rpartition(":")
    parts = path.split("/")
    keep = 2 if parts[-1] in ("mod.rs", "lib.rs", "main.rs") else 1
    return "/".join(parts[-keep:]) + ":" + line


def symbolise(maps, stacks):
    """pc -> ([innermost inlined function, ..., the physical function],
    the innermost inlined frame's `file:line`)."""
    by_file = collections.defaultdict(set)
    where = {}
    for stack in stacks:
        for depth, pc in enumerate(stack):
            # A return address belongs to the call before it.
            at = pc if depth == 0 else pc - 1
            for lo, hi, base, file in maps:
                if lo <= at < hi:
                    where[(pc, depth == 0)] = (file, at - base)
                    by_file[file].add(at - base)
    names, lines = {}, {}
    for file, offsets in by_file.items():
        offsets = sorted(offsets)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", file] + [hex(o) for o in offsets],
            capture_output=True, text=True, check=True).stdout.splitlines()
        # A shared object without debug info resolves to the nearest
        # exported symbol, which is often wrong: say whose code it is.
        tag = f"[{file.rsplit('/', 1)[-1]}] " if ".so" in file else ""
        # Per address: the physical function's symbol, then one "inlined
        # by" short name per level outwards, the last being the physical
        # function again. The innermost inlined callee's own name is not
        # printed; its samples count for the level that called it.
        current = None
        for i, line in enumerate(out + ["0x0"]):
            if re.fullmatch(r"0x[0-9a-f]+", line):
                if current and len(current) > 1:
                    current[:] = current[1:-1] + current[:1]
                loc = (file, int(line, 16))
                current = names.setdefault(loc, [])
                fn_line = i + 1
            elif (i - fn_line) % 2 == 0:
                current.append(tag + re.sub(r"::h[0-9a-f]{16}$", "", line))
            elif i == fn_line + 1:
                lines[loc] = tag + source_line(line)
    return {key: (names.get(loc, ["??"]), lines.get(loc, "??")) for key, loc in where.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("dump", nargs="+")
    ap.add_argument("--under", action="append", default=[], metavar="FN")
    ap.add_argument("--focus")
    ap.add_argument("--lines", metavar="FN")
    ap.add_argument("--callers", metavar="FN")
    ap.add_argument("--sort", choices=("incl", "self"), default="incl")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--folded", action="store_true")
    args = ap.parse_args()

    rows, seconds, asked = [], 0.0, set()
    unknown = (["??"], "??")
    for dump in args.dump:
        maps, stacks, cpu = load(dump)
        if cpu:
            seconds += cpu[0]
            asked.add(cpu[1])
        names = symbolise(maps, stacks)
        # Leaf first, inlined frames expanded; with the leaf pc's source line.
        rows += [([fn for depth, pc in enumerate(s) for fn in names.get((pc, depth == 0), unknown)[0]],
                  names.get((s[0], True), unknown)[1] if s else "??")
                 for s in stacks]
    n_stacks = len(rows)
    if seconds:
        # ITIMER_PROF fires on the kernel tick: below it, asking for a
        # shorter interval takes no more samples.
        every = 1000 * seconds / max(n_stacks, 1)
        us = ", ".join(f"{u / 1000:g}" for u in sorted(asked))
        print(f"# {n_stacks} stacks over {seconds:.2f} s of CPU, one per {every:.2f} ms"
              f" (PCPROF_US asked for one per {us} ms)")
    for cuts in (args.under, [args.focus], [args.lines]):
        if any(cuts):
            kept = []
            for f, leaf in rows:
                hits = [i for i, fn in enumerate(f) if any(cut in fn for cut in cuts)]
                if hits:
                    kept.append((f[:hits[-1] + 1], leaf))
            rows = kept
    frames = [f for f, _ in rows]
    total = len(frames)
    print(f"# {n_stacks} stacks, {total} kept")
    if args.lines:
        print(f"{'%':>7}  leaf line under {args.lines}")
        for line, n in collections.Counter(leaf for _, leaf in rows).most_common(args.top):
            print(f"{100 * n / max(total, 1):7.2f}  {line}")
        return
    if args.callers:
        above, hit = collections.Counter(), 0
        for f in frames:
            hits = [i for i, fn in enumerate(f) if args.callers in fn]
            if hits:
                hit += 1
                above.update(set(f[hits[-1] + 1:]))
        print(f"# {hit} with {args.callers}: {100 * hit / max(total, 1):.2f} %")
        print(f"{'% all':>7} {'% fn':>7}  caller of {args.callers}")
        for fn, n in above.most_common(args.top):
            print(f"{100 * n / max(total, 1):7.2f} {100 * n / max(hit, 1):7.2f}  {fn}")
        return
    if args.folded:
        folded = collections.Counter(";".join(reversed(f)) for f in frames)
        for stack, n in sorted(folded.items()):
            print(stack, n)
        return
    inclusive, self_ = collections.Counter(), collections.Counter()
    for f in frames:
        beneath = f[:-1] if args.focus else f
        inclusive.update(set(beneath))
        self_[f[0]] += 1
    order = inclusive if args.sort == "incl" else self_
    print(f"{'incl %':>7} {'self %':>7}  function")
    for fn, _ in order.most_common(args.top):
        print(f"{100 * inclusive[fn] / max(total, 1):7.2f} {100 * self_[fn] / max(total, 1):7.2f}  {fn}")


if __name__ == "__main__":
    main()
