"""Per-layer metrics of the traced run, derived from its spans.

Every metric is reported on every workload; a layer the workload never
enters reads 0.  The names, units and directions here are the ones
``BENCHMARK.json`` declares under ``per_layer``.
"""

from __future__ import annotations

from tracing import CS_EDITS, CS_READS, EDIT_SPANS, MC_EDITS, MC_SPLICES, OP_SPANS, SpanSummary

ST_TIMED = ("sum", "search", "divide", "merge", "insert", "delete")
MC_TIMED = ("access",) + MC_EDITS + MC_SPLICES
CLI_COMMANDS = ("compress", "verify", "decompress", "edit")

PER_LAYER = (
    [("partial_sums.calls_per_edit", "count", "lower"),
     ("partial_sums.calls_per_edit_max", "count", "lower")]
    + [(f"partial_sums.self_us.{op}", "us", "lower") for op in ST_TIMED]
    + [("partial_sums.time_share", "fraction", "lower"),
       ("partial_sums_small.calls_per_edit", "count", "lower"),
       ("partial_sums_small.self_us", "us", "lower"),
       ("partial_sums_small.rebuilds_per_1k", "count", "lower"),
       ("partial_sums_small.search_fallbacks_per_1k", "count", "lower"),
       ("ref_index.sa_build_s", "s", "lower"),
       ("ref_index.lce_build_s", "s", "lower"),
       ("ref_index.tree_build_s", "s", "lower"),
       ("ref_index.build_peak_mb", "MB", "lower"),
       ("ref_index.factorize_mb_s", "MB/s", "higher"),
       ("ref_index.concat_self_us", "us", "lower"),
       ("ref_index.concat_calls_per_edit", "count", "lower"),
       ("ref_index.concat_calls_per_edit_max", "count", "lower"),
       ("ref_index.concat_hit_frac", "fraction", "higher")]
    + [(f"cover_engine.self_us.{op}", "us", "lower") for op in CS_READS + CS_EDITS]
    + [("cover_engine.blocks", "count", "lower")]
    + [(f"multi_cover.self_us.{op}", "us", "lower") for op in MC_TIMED]
    + [("multi_cover.concat_calls_per_op", "count", "lower")]
    + [(f"drc_cli.{cmd}_s", "s", "lower") for cmd in CLI_COMMANDS]
    + [(f"drc_cli.{part}_s", "s", "lower")
       for part in ("fnv", "codec", "verify_scan", "index", "script_ops")]
    + [("trace.overhead_s", "s", "lower")]
)

# exact counts: the same seed must reproduce them in every pass
EXACT = (
    "partial_sums.calls_per_edit", "partial_sums.calls_per_edit_max",
    "partial_sums_small.calls_per_edit", "partial_sums_small.rebuilds_per_1k",
    "partial_sums_small.search_fallbacks_per_1k", "ref_index.concat_calls_per_edit",
    "ref_index.concat_calls_per_edit_max", "ref_index.concat_hit_frac",
    "cover_engine.blocks", "multi_cover.concat_calls_per_op",
)

CS_OPS = {("cover_engine", m) for m in CS_READS + CS_EDITS}
MC_OPS = {("multi_cover", m) for m in MC_TIMED}


def _cli_metrics(m: dict, setup: SpanSummary, run: SpanSummary, edit_wall: float) -> None:
    """One pipeline: the traced set-up's compress, verify and decompress,
    and the traced pass's first edit."""
    mains = {}
    for summary in (setup, run):
        for k in summary.entering("drc_cli", {"main"}):
            cmd = summary.spans[k][5][0]
            if summary.spans[k][2] < 0 and cmd in CLI_COMMANDS:
                mains.setdefault(cmd, (summary, k))
    if set(mains) != set(CLI_COMMANDS):
        return
    for cmd in ("compress", "verify", "decompress"):
        summary, k = mains[cmd]
        m[f"drc_cli.{cmd}_s"] = summary.dur[k]
    m["drc_cli.edit_s"] = edit_wall
    for cmd, (summary, main) in mains.items():
        for k in summary.under(main):
            layer, name, parent, *_rest, note = summary.spans[k]
            d = summary.dur[k]
            if name == "fnv1a64":
                m["drc_cli.fnv_s"] += d
            elif name in ("encode_cover", "decode_cover"):
                m["drc_cli.codec_s"] += d
            elif name == "build_index" or (name == "substring_concat" and note[1]):
                m["drc_cli.index_s"] += d
            if cmd == "verify" and parent == main and name in ("_read", "fnv1a64", "decode_cover"):
                m["drc_cli.verify_scan_s"] -= d
        if cmd == "verify":
            m["drc_cli.verify_scan_s"] += summary.dur[main]
        if cmd == "edit":
            builds = sum(summary.dur[k] for k in summary.under(main)
                         if summary.spans[k][1] == "substring_concat" and summary.spans[k][5][1])
            ops = sum(summary.dur[k] for k in summary.ops(CS_OPS) if summary.root[k] == main)
            m["drc_cli.script_ops_s"] = ops - builds


def layer_metrics(tracer, setup_tracer, edit_wall: float, blocks: int, stages: dict) -> dict:
    """Every per-layer metric from one traced pass.

    ``setup_tracer`` traced the workload's set-up, ``edit_wall`` is the
    untraced pass's time inside ``drc edit`` (CLI only), ``blocks`` the
    final block count and ``stages`` the index build-stage figures.
    """
    s = SpanSummary(tracer.spans)
    setup = SpanSummary(setup_tracer.spans)
    m = {name: 0.0 for name, _unit, _better in PER_LAYER}
    m.update(stages)
    ops = s.ops()
    n_ops = len(ops)
    op_time = sum(s.dur[k] for k in ops)

    mean, worst = s.calls_per_op("partial_sums", EDIT_SPANS)
    m["partial_sums.calls_per_edit"], m["partial_sums.calls_per_edit_max"] = mean, worst
    for op in ST_TIMED:
        m[f"partial_sums.self_us.{op}"] = s.mean_self_us("partial_sums", {op})
    if op_time:
        m["partial_sums.time_share"] = s.inclusive_s("partial_sums", set(ops)) / op_time

    m["partial_sums_small.calls_per_edit"] = s.calls_per_op("partial_sums_small", EDIT_SPANS)[0]
    m["partial_sums_small.self_us"] = s.mean_self_us("partial_sums_small")
    deltas = [s.spans[k][5] for k in s.entering("partial_sums_small") if s.spans[k][5]]
    if n_ops:
        m["partial_sums_small.rebuilds_per_1k"] = 1000 * sum(d[0] for d in deltas) / n_ops
        m["partial_sums_small.search_fallbacks_per_1k"] = 1000 * sum(d[1] for d in deltas) / n_ops

    fact = setup.entering("ref_index", {"factorize"})
    fact_s = sum(setup.dur[k] for k in fact)
    if fact_s:
        m["ref_index.factorize_mb_s"] = sum(setup.spans[k][5] for k in fact) / 2**20 / fact_s
    concat = s.entering("ref_index", {"substring_concat"})
    m["ref_index.concat_self_us"] = s.mean_self_us(
        "ref_index", {"substring_concat"}, skip=lambda k: s.spans[k][5][1])
    mean, worst = s.calls_per_op("ref_index", EDIT_SPANS, {"substring_concat"})
    m["ref_index.concat_calls_per_edit"], m["ref_index.concat_calls_per_edit_max"] = mean, worst
    if concat:
        m["ref_index.concat_hit_frac"] = sum(s.spans[k][5][0] for k in concat) / len(concat)

    for op in CS_READS + CS_EDITS:
        m[f"cover_engine.self_us.{op}"] = s.mean_self_us("cover_engine", {op})
    if s.ops(CS_OPS):
        m["cover_engine.blocks"] = blocks

    for op in MC_TIMED:
        m[f"multi_cover.self_us.{op}"] = s.mean_self_us("multi_cover", {op})
    m["multi_cover.concat_calls_per_op"] = s.calls_per_op(
        "ref_index", MC_OPS, {"substring_concat"})[0]

    _cli_metrics(m, setup, s, edit_wall)
    return m


def exact_counts(rec, fingerprint: dict, metrics=None) -> dict:
    """What a pass must reproduce exactly: the final text and block count,
    the per-edit counters of CompressedString and, for a traced pass, the
    count-valued per-layer metrics."""
    out = dict(fingerprint)
    out["last_st_ops"] = (sum(rec.st_ops), max(rec.st_ops, default=0))
    out["last_concat_calls"] = (sum(rec.concat_calls), max(rec.concat_calls, default=0))
    if metrics is not None:
        out.update((k, metrics[k]) for k in EXACT)
    return out


def span_vs_counter(metrics: dict, rec) -> list:
    """Names whose span-derived value disagrees with CompressedString's own
    per-edit counters (when the workload has them)."""
    if not rec.st_ops:
        return []
    n = len(rec.st_ops)
    want = {
        "partial_sums.calls_per_edit": sum(rec.st_ops) / n,
        "partial_sums.calls_per_edit_max": max(rec.st_ops),
        "ref_index.concat_calls_per_edit": sum(rec.concat_calls) / n,
        "ref_index.concat_calls_per_edit_max": max(rec.concat_calls),
    }
    return [k for k, v in want.items() if metrics[k] != v]
