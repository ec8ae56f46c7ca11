"""Ablations of RTS design choices (beyond the paper's figures).

1. Mondrian (class-conditional) vs marginal conformal calibration.
2. Exchangeable split conformal vs the non-exchangeable KNN variant.
3. The per-layer AUC depth profile (why top-k selection matters).
4. Probe training-data fraction (the paper trains on ~10% of the
   training split at full benchmark scale).
"""

from __future__ import annotations

from repro.core.config import RTSConfig
from repro.core.pipeline import RTSPipeline
from repro.experiments.common import ExperimentContext, ExperimentResult
from repro.probes.metrics import evaluate_bpp


def _eval_config(ctx: ExperimentContext, config: RTSConfig, task: str = "table"):
    bench = ctx.benchmark("bird")
    pipe = RTSPipeline(ctx.llm, config)
    instances = [
        RTSPipeline.instance_for(e, bench, task) for e in bench.train
    ]
    pipe.fit_task(task, instances)
    # The dev-split D_branch is identical across all ablation variants,
    # so it comes from the context's memoized batch collection.
    dataset = ctx.branch_dataset("bird", "dev", task)
    return evaluate_bpp(pipe.mbpp(task), dataset)


def _logit_baseline_rows(ctx: ExperimentContext) -> list[list]:
    """The §3.1 claim, quantified: a logit threshold cannot match mBPP."""
    from repro.core.pipeline import RTSPipeline
    from repro.probes.baselines import LogitThresholdDetector, collect_max_probs

    bench = ctx.benchmark("bird")
    train = [RTSPipeline.instance_for(e, bench, "table") for e in bench.train]
    dev = [RTSPipeline.instance_for(e, bench, "table") for e in bench.dev]
    detector = LogitThresholdDetector().fit(*collect_max_probs(ctx.llm, train))
    ev = detector.evaluate(*collect_max_probs(ctx.llm, dev))
    return [
        ["Logit-threshold baseline (best Youden J)", ev.coverage, ev.ear],
        [f"  (baseline max-prob AUC = {detector.auc:.3f})", float("nan"), float("nan")],
    ]


def run(ctx: ExperimentContext) -> ExperimentResult:
    rows = []
    variants = [
        ("Mondrian split conformal (default)", RTSConfig(seed=3)),
        ("Marginal split conformal", RTSConfig(seed=3, mondrian=False)),
        ("Non-exchangeable (KNN-weighted)", RTSConfig(seed=3, conformal_mode="nonexchangeable")),
        ("Probe fraction 0.5", RTSConfig(seed=3, train_fraction=0.5)),
        ("Probe fraction 0.25", RTSConfig(seed=3, train_fraction=0.25)),
        ("Majority-vote aggregation", RTSConfig(seed=3, aggregation="majority")),
    ]
    for label, config in variants:
        ev = _eval_config(ctx, config)
        rows.append([label, ev.coverage, ev.ear])

    rows.extend(_logit_baseline_rows(ctx))

    # Depth profile of per-layer probe AUC.
    base = ctx.pipeline("bird").mbpp("table")
    profile_rows = [
        [f"layer {p.layer_index} AUC", p.auc, float("nan")]
        for p in base.all_probes
    ]
    return ExperimentResult(
        experiment_id="Ablations",
        title="RTS design-choice ablations (BIRD table linking)",
        headers=["Variant", "Coverage", "EAR"],
        rows=rows + profile_rows,
        paper_rows=None,
        notes=(
            "Marginal calibration loses class-conditional coverage on the "
            "rare branching class; small probe fractions cost coverage; the "
            "AUC depth profile peaks mid-late, motivating top-k selection; "
            "the logit-threshold baseline (over-confidence, Figure 3a) "
            "cannot reach mBPP's coverage without an order-of-magnitude "
            "higher EAR."
        ),
    )


def main() -> None:  # pragma: no cover
    print(run(ExperimentContext.default()).render())


if __name__ == "__main__":  # pragma: no cover
    main()
