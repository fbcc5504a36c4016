#!/usr/bin/env python3
"""Diff BENCH_*.json results against a previous run's artifact.

Each BENCH_*.json is a flat array of rows:
    {"bench": ..., "config": ..., "metric": ..., "value": ...}
(see bench/harness.h JsonReporter). This script joins current rows against
the previous run's rows on (bench, config, metric), prints a delta table,
and exits nonzero when a *gated* metric regresses by more than the allowed
fraction. Higher-is-better vs lower-is-better is per metric name.

Usage:
    tools/bench_diff.py --prev <dir-with-previous-BENCH_*.json> \
                        --curr <dir-with-current-BENCH_*.json> \
                        [--threshold 0.10]
    tools/bench_diff.py --list-gates [--threshold 0.10]
    tools/bench_diff.py --nkbench <dir-with-<workload>.json> [--layers] [--refresh]

When --prev holds no rows (a fresh clone, or CI's first run), the diff runs
against the blessed snapshot in bench/baseline/ instead: the BENCH_*.json rows
of the four CI `--smoke` runs (bench_fig11_nqe_switch, bench_table6_cpu_throughput,
bench_obs_overhead, bench_nsm_failover), which are deterministic DES output.
A change that moves a smoke figure on purpose refreshes the snapshot in the same
change (see REFRESH_HINT); when --prev does hold rows, the script still reports
how many of the current rows the snapshot disagrees with, so a stale snapshot
shows up in every run's log. A new metric absent from the previous rows is
reported but never fails.

--nkbench checks nkbench's virtual end-to-end metrics (NKBENCH_EXACT) for exact
equality against the snapshot bench/baseline/nkbench_seed1.json. The directory
holds one <workload>.json per workload: the last stdout line of
`nkbench --workload <workload> --seed 1 --seconds 1 --trace 0`. These metrics
are deterministic per seed whatever --seconds is, so any difference is a model
change: it fails until the same change refreshes the snapshot (--refresh
rewrites it from the directory; see NKBENCH_REFRESH_HINT). The wall-clock and
host figures (sim_refev_per_op, setup_s, peak_rss_mb) are not checked.

--nkbench DIR --layers checks the deterministic per-layer counters (NKBENCH_LAYERS)
of `--trace 1` runs the same way, against bench/baseline/nkbench_layers_seed1.json.
Tracing charges modeled cycles, so a traced run's end-to-end metrics differ from an
untraced one and are not checked here.

--list-gates prints the gated-metric set, one `bench metric direction
threshold` row per gate, so the set is itself lintable: diff it against the
host metrics artifact (host-metrics.json) or a BENCH_*.json dump to catch a
gate whose metric was renamed out from under it.
"""

import argparse
import glob
import json
import os
import sys

BASELINE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "bench", "baseline")
REFRESH_HINT = """\
refresh bench/baseline/ from a Release build (cmake -B build-rel -DCMAKE_BUILD_TYPE=Release):
  ./build-rel/bench_fig11_nqe_switch --smoke --json bench/baseline/BENCH_fig11.json
  ./build-rel/bench_table6_cpu_throughput --smoke --json bench/baseline/BENCH_table6.json
  ./build-rel/bench_obs_overhead --smoke --json bench/baseline/BENCH_obs.json
  ./build-rel/bench_nsm_failover --smoke --json bench/baseline/BENCH_failover.json"""

NKBENCH_SNAPSHOT = "nkbench_seed1.json"
NKBENCH_EXACT = ("cycles_per_op", "ok_frac", "p50_us", "p99_us", "p999_us", "p99_us_lo",
                 "capacity_kops", "tx_gbps", "rx_gbps")
NKBENCH_REFRESH_HINT = """\
refresh bench/baseline/nkbench_seed1.json from a Release nkbench build
(cmake -S nkbench -B build-nkbench -DCMAKE_BUILD_TYPE=Release):
  mkdir -p nkbench-out
  for w in kv_udp_open http_short_closed bulk_txrx; do
    ./build-nkbench/nkbench --workload $w --seed 1 --seconds 1 --trace 0 | tail -1 > nkbench-out/$w.json
  done
  python3 tools/bench_diff.py --nkbench nkbench-out --refresh"""

NKBENCH_LAYERS_SNAPSHOT = "nkbench_layers_seed1.json"
# The per-layer keys of a `--trace 1` run (nkbench/LAYERS.md) that are exact per
# seed: per-op counts, utilisations, the CE round size, drop/defer counters and
# the traced-NQE counts. The sim.* keys, obs.trace_overhead and every key
# measured in wall-clock ns are left out.
NKBENCH_LAYERS = ("netsim.wire_pkts_per_op", "netsim.link_util", "shm.pool_allocs_per_op",
                  "guestlib.nqes_per_op", "guestlib.busy_cycles_per_op",
                  "ce.busy_cycles_per_op", "ce.util", "ce.nqes_per_round",
                  "ce.nqes_switched_per_op", "ce.table_inserts_per_op", "ce.deferred",
                  "ce.dropped", "ce.traced_nqes", "nsm.busy_cycles_per_op", "nsm.util",
                  "servicelib.doorbells_per_op", "nsm.traced_nqes", "tcp.segs_per_op")
NKBENCH_LAYERS_REFRESH_HINT = """\
refresh bench/baseline/nkbench_layers_seed1.json from a Release nkbench build
(cmake -S nkbench -B build-nkbench -DCMAKE_BUILD_TYPE=Release):
  mkdir -p nkbench-trace-out
  for w in kv_udp_open http_short_closed bulk_txrx; do
    ./build-nkbench/nkbench --workload $w --seed 1 --seconds 1 --trace 1 | tail -1 > nkbench-trace-out/$w.json
  done
  python3 tools/bench_diff.py --nkbench nkbench-trace-out --layers --refresh"""

# Metrics where a LOWER value is better; everything else is higher-is-better.
LOWER_IS_BETTER = {
    "cycles_per_byte",
    "p99_us",
    "p50_us",
    "latency_us",
    "loss_rate",
    "blackout_p99_us",
}

# (bench, metric) -> max allowed relative regression. These gate CI; keep the
# set aligned with the --smoke gates: these are the claims the repo's perf
# story rests on. A value of None defers to --threshold (the CLI default); an
# explicit number overrides it per metric — the simulation is deterministic,
# so the slack only needs to absorb intentional cost-model drift, and the
# paper-figure goodput gates can be tighter than the generic default.
GATED = {
    ("fig11_raw_switch", "nqes_per_sec"): None,
    ("fig11_sharded_switch", "nqes_per_sec"): None,
    # nkguard: switching with validation on must stay within 3% of guard-off.
    # Tighter than the generic default on purpose — this is the subsystem's
    # headline cost claim (see bench_fig11_nqe_switch --smoke).
    ("fig11_guard_switch", "nqes_per_sec"): 0.03,
    ("table6_cpu", "cycles_per_byte"): None,
    ("ce_shard_scaling", "nqes_per_sec"): None,
    ("fig10_shm", "gbps"): 0.05,
    ("fig17_short_conns", "krps"): 0.05,
    ("table5_latency", "p50_us"): 0.15,
    # Paper figures 13-16: single-/multi-stream send and recv goodput.
    ("fig13_send", "gbps"): 0.05,
    ("fig14_recv", "gbps"): 0.05,
    ("fig15_send", "gbps"): 0.05,
    ("fig16_recv", "gbps"): 0.05,
    # UDP key-value RPS (fig 12 workload shape): rate tight, tail looser.
    ("udp_kv_rps", "achieved_krps"): 0.05,
    ("udp_kv_rps", "p99_us"): 0.15,
    # nkobs: switch rate with the tracer attached must not drift either.
    ("obs_overhead", "nqes_per_sec"): None,
    # NSM failover: datagram survival is the robustness headline (near-1.0,
    # so the tolerance is tight); blackout is a detection-latency tail and
    # absorbs more cost-model drift.
    ("nsm_failover", "survival_rate"): 0.01,
    ("nsm_failover", "blackout_p99_us"): 0.25,
}


def load_rows(directory, pattern="BENCH_*.json"):
    rows = {}
    for path in sorted(glob.glob(os.path.join(directory, pattern))):
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"warning: cannot read {path}: {e}", file=sys.stderr)
            continue
        for row in data:
            key = (row.get("bench", ""), row.get("config", ""), row.get("metric", ""))
            rows[key] = float(row.get("value", 0.0))
    return rows


def load_nkbench_rows(directory, keys):
    """(nkbench, workload, metric) rows of `keys` from <workload>.json result lines."""
    rows = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        workload = os.path.splitext(os.path.basename(path))[0]
        try:
            with open(path) as f:
                metrics = json.loads(f.read().strip().splitlines()[-1])["metrics"]
        except (OSError, IndexError, KeyError, json.JSONDecodeError) as e:
            print(f"warning: no nkbench result in {path}: {e}", file=sys.stderr)
            continue
        for metric in keys:
            if metric in metrics:
                rows[("nkbench", workload, metric)] = float(metrics[metric]["value"])
    return rows


def check_nkbench(directory, refresh, layers):
    """Exact-equality check of nkbench's virtual metrics (or, with `layers`, its
    deterministic per-layer counters) against the snapshot."""
    name, keys, hint = ((NKBENCH_LAYERS_SNAPSHOT, NKBENCH_LAYERS, NKBENCH_LAYERS_REFRESH_HINT)
                        if layers else (NKBENCH_SNAPSHOT, NKBENCH_EXACT, NKBENCH_REFRESH_HINT))
    curr = load_nkbench_rows(directory, keys)
    if not curr:
        print(f"no nkbench results in {directory}")
        return 1
    snapshot = os.path.join(BASELINE_DIR, name)
    if refresh:
        rows = [{"bench": b, "config": c, "metric": m, "value": v}
                for (b, c, m), v in sorted(curr.items())]
        with open(snapshot, "w") as f:
            f.write("[\n" + ",\n".join("  " + json.dumps(r) for r in rows) + "\n]\n")
        print(f"wrote {len(rows)} rows to {snapshot}")
        return 0
    prev = load_rows(BASELINE_DIR, name)
    changed = 0
    width = max(len(k) for k in keys)
    header = f"{'workload':<20} {'metric':<{width}} {'snapshot':>20} {'this run':>20} {'delta':>10}"
    print(header)
    print("-" * len(header))
    for key in sorted(set(prev) | set(curr)):
        _, workload, metric = key
        pv, cv = prev.get(key), curr.get(key)
        ps = "(none)" if pv is None else repr(pv)
        cs = "(none)" if cv is None else repr(cv)
        delta = f"{(cv - pv) / abs(pv) * 100:+.4f}%" if pv and cv is not None else ""
        flag = ""
        if pv != cv:
            flag = " <-- CHANGED"
            changed += 1
        print(f"{workload:<20} {metric:<{width}} {ps:>20} {cs:>20} {delta:>10}{flag}")
    what = "per-layer counter" if layers else "virtual metric"
    if changed:
        print(f"\nFAIL: {changed} nkbench {what}(s) differ from {snapshot}.")
        print("These are deterministic per seed, so the change moved the model. If that is "
              "intended, " + hint)
        return 1
    print(f"\nOK: all {len(curr)} nkbench {what}s match the snapshot exactly")
    return 0


def gate_threshold(bench, metric, default):
    """None if (bench, metric) is ungated, else its allowed regression."""
    if (bench, metric) not in GATED:
        return None
    override = GATED[(bench, metric)]
    return default if override is None else override


def list_gates(default_threshold):
    """Machine-readable dump of the gated set: bench metric direction threshold."""
    print(f"{'bench':<22} {'metric':<18} {'direction':<10} {'threshold':>9}")
    for (bench, metric), override in sorted(GATED.items()):
        direction = "lower" if metric in LOWER_IS_BETTER else "higher"
        thr = default_threshold if override is None else override
        print(f"{bench:<22} {metric:<18} {direction:<10} {thr:>9.2f}")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--prev", help="directory with previous BENCH_*.json")
    ap.add_argument("--curr", help="directory with current BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max allowed relative regression on gated metrics")
    ap.add_argument("--list-gates", action="store_true",
                    help="print the gated-metric set (bench metric direction "
                         "threshold) and exit")
    ap.add_argument("--nkbench", metavar="DIR",
                    help="check the nkbench results <workload>.json in DIR for exact "
                         "equality with bench/baseline/" + NKBENCH_SNAPSHOT)
    ap.add_argument("--layers", action="store_true",
                    help="with --nkbench: DIR holds --trace 1 results; check their per-layer "
                         "counters against bench/baseline/" + NKBENCH_LAYERS_SNAPSHOT)
    ap.add_argument("--refresh", action="store_true",
                    help="with --nkbench: rewrite the snapshot from DIR instead of checking")
    args = ap.parse_args()

    if args.list_gates:
        return list_gates(args.threshold)
    if args.nkbench is not None:
        return check_nkbench(args.nkbench, args.refresh, args.layers)
    if args.refresh or args.layers:
        ap.error("--refresh and --layers go with --nkbench")
    if args.prev is None or args.curr is None:
        ap.error("--prev and --curr are required unless --list-gates or --nkbench is given")

    prev = load_rows(args.prev)
    curr = load_rows(args.curr)
    if not curr:
        print("no current BENCH_*.json rows found — nothing to diff")
        return 1
    baseline = load_rows(BASELINE_DIR)
    if not prev:
        if not baseline:
            print("no previous BENCH_*.json rows and no blessed baseline — recording only")
            return 0
        print(f"no previous BENCH_*.json rows — comparing against the checked-in snapshot "
              f"in {BASELINE_DIR}")
        print("if this change moves a smoke figure on purpose, " + REFRESH_HINT + "\n")
        prev = baseline
    else:
        stale = [k for k in curr if k in baseline and baseline[k] != curr[k]]
        if stale:
            print(f"note: the checked-in snapshot in {BASELINE_DIR} differs from this run "
                  f"on {len(stale)} row(s); if the change is intended, " + REFRESH_HINT + "\n")

    regressions = []
    header = f"{'bench':<22} {'config':<30} {'metric':<18} {'prev':>12} {'curr':>12} {'delta':>8}"
    print(header)
    print("-" * len(header))
    for key in sorted(curr):
        bench, config, metric = key
        cv = curr[key]
        if key not in prev:
            print(f"{bench:<22} {config:<30} {metric:<18} {'(new)':>12} {cv:>12.4g} {'':>8}")
            continue
        pv = prev[key]
        if pv == 0:
            delta = 0.0
        elif metric in LOWER_IS_BETTER:
            delta = (cv - pv) / abs(pv)        # positive = worse
        else:
            delta = (pv - cv) / abs(pv)        # positive = worse
        thr = gate_threshold(bench, metric, args.threshold)
        flag = ""
        if thr is not None and delta > thr:
            flag = " <-- REGRESSION"
            regressions.append((key, pv, cv, delta, thr))
        elif thr is None and delta > args.threshold:
            flag = " (ungated)"
        print(f"{bench:<22} {config:<30} {metric:<18} {pv:>12.4g} {cv:>12.4g} "
              f"{delta * 100:>+7.1f}%{flag}")

    # A gated metric that existed in the previous run but vanished from the
    # current one is itself a gate failure: losing the measurement is how a
    # perf claim silently disappears.
    missing = [k for k in sorted(prev)
               if k not in curr and gate_threshold(k[0], k[2], args.threshold) is not None]
    for bench, config, metric in missing:
        print(f"{bench:<22} {config:<30} {metric:<18} {prev[(bench, config, metric)]:>12.4g} "
              f"{'(gone)':>12} {'':>8} <-- MISSING GATED METRIC")
        regressions.append(((bench, config, metric), prev[(bench, config, metric)],
                            float("nan"), float("inf"), 0.0))

    if regressions:
        print(f"\nFAIL: {len(regressions)} gated metric(s) regressed past their threshold:")
        for (bench, config, metric), pv, cv, delta, thr in regressions:
            print(f"  {bench} [{config}] {metric}: {pv:.4g} -> {cv:.4g} "
                  f"({delta * 100:+.1f}%, allowed {thr * 100:.0f}%)")
        return 1
    print("\nOK: no gated metric regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
