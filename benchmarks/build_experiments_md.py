"""Assemble EXPERIMENTS.md from the bench results and commentary.

Run after ``pytest benchmarks/ --benchmark-only``:

    python benchmarks/build_experiments_md.py
    python benchmarks/build_experiments_md.py --check   # exit 1 if stale

Each section pairs hand-written reproduction commentary (what the paper
reported, what to look for, where our analog deviates and why) with the
measured table from ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
OUTPUT = ROOT / "EXPERIMENTS.md"

HEADER = """\
# EXPERIMENTS — paper-reported vs measured

Every table and figure of the paper's evaluation (Section V), regenerated
by `pytest benchmarks/ --benchmark-only` on the synthetic benchmark
analogs (see DESIGN.md for the substitution table). **Absolute numbers
are not comparable to the paper** — the data is generated, the scales are
reduced (large datasets at 10-30% of Table III size) and search budgets
are counted in pipeline evaluations instead of wall-clock hours.  The
reproduction target is the *shape*: who wins, in which direction each
knob moves the result, and where the crossovers sit.  Tables below are
the exact files the benches wrote to `benchmarks/results/`.

Global calibration: the synthetic analogs were tuned so the Magellan
baseline lands near the paper's per-dataset F1
(Table IV column: 78.8 / 100 / 91.2 / 98.4 / 92.3 / 49.1 / 71.9 / 43.6);
measured Magellan values below stay within a few points of those anchors,
which is what makes the relative comparisons meaningful.
"""

SECTIONS: list[tuple[str, list[str], str]] = [
    ("Figure 3 — why parameter tuning matters (E1-E3)",
     ["fig3a", "fig3b", "fig3c"],
     """Paper: sweeping a single knob moves Abt-Buy F1 by ΔF1 = 10.08%
(random-forest `max_features`), 13.99% (number of selected features) and
1.17% (RobustScaler `q_min`).

Measured: the two model/selection knobs move F1 by several points at our
scale with the same ordering (feature selection > max_features >>
scaling).  **Reproduction finding** for Figure 3c: exact CART is provably
invariant to per-feature affine rescaling, so with a fixed forest seed
the `q_min` sweep is *exactly* flat (`f1_fixed_seed` column).  The
paper's small 1.17% is the same magnitude as plain run-to-run forest
variance, which the `f1_reseeded` column demonstrates — reproducing the
*size* of the reported effect and identifying its source."""),

    ("Table III — datasets (E4)",
     ["table3"],
     """The generated analogs match Table III's schemas, attribute counts
and positive totals; the small datasets are generated at full size (e.g.
Fodors-Zagats: 757 train / 189 test / 110 positives, exactly the paper's
row), the large ones at the `scale` shown."""),

    ("Table IV — Magellan vs AutoML-EM (E5, Finding 1)",
     ["table4"],
     """Paper: AutoML-EM beats the human-developed Magellan models on
every dataset, by +5.8 F1 on average (their summary row; the per-row ∆
column is internally inconsistent — see tests/test_experiments.py), with
the big gains on the hard product datasets (+17.3 Amazon-Google, +15.6
Abt-Buy).

Measured: the same shape — AutoML-EM wins on average, ties on the
saturated easy datasets (Fodors-Zagats, DBLP-ACM at 100), and posts its
largest gain exactly where the paper does (Amazon-Google).  Individual
cells are noisier than the paper's (our scaled test sets have tens of
positives, and we average only 2 generator seeds), so single-dataset
reversals of a few points occur where the paper reports small gaps."""),

    ("Figure 8 — AutoML-EM vs DeepMatcher (E6, Finding 2)",
     ["fig8"],
     """Paper: the non-deep AutoML-EM reaches or exceeds DeepMatcher on
structured data and stays competitive even on textual data (DeepMatcher
slightly ahead on Amazon-Google/Abt-Buy).

Measured: AutoML-EM is competitive-or-better across the board.
**Substitution limit**: DeepMatcherLite (hashed embeddings + soft word
alignment + numpy MLP) is a weaker stand-in than the real
RNN-with-pretrained-fastText DeepMatcher, and it underperforms most on
the long-text product datasets — so the corner of Figure 8 where the
paper's DeepMatcher *slightly wins* inverts here.  The headline claim
(Finding 2: non-deep matches deep) holds in amplified form."""),

    ("Figure 9 — feature-generation ablation (E7)",
     ["fig9"],
     """Paper: running the same AutoML on Table II features beats Table I
features on all 8 datasets (+0 to +11.1), and Table II is always wider.

Measured: Table II is wider on every dataset (column `*_nfeat`) and wins
on average; a couple of per-dataset cells flip sign within noise at our
scale.  The qualitative takeaway — let AutoML do feature selection
instead of pre-filtering by string length — is reproduced."""),

    ("Figure 10 — model-space study (E8)",
     ["fig10"],
     """Paper: the random-forest-only space converges faster at short
budgets; the all-model space catches up (and can pass) given hours.

Measured (budget = pipeline evaluations): the RF-only space dominates the
all-model space at every checkpoint on both hard datasets — the paper's
short-budget regime, which is exactly where our evaluation-count budgets
live.  The late all-model crossover needs far larger budgets than the
bench runs."""),

    ("Figure 12 — pipeline ablation (E9)",
     ["fig12"],
     """Paper: disabling the found pipeline's data preprocessing drops
validation F1 (63.7→60.1 Amazon-Google, 63.9→56.0 Abt-Buy); disabling
feature preprocessing on top drops it further but less dramatically.

Measured (averaged over 3 search seeds): the full pipeline is the best
variant on both hard datasets, with data preprocessing carrying most of
the difference — the paper's conclusion."""),

    ("Figure 13 — label-budget sweep (E10)",
     ["fig13"],
     """Paper: with init=500 and st_batch=200, AutoML-EM-Active beats
AC+AutoML-EM at every active-learning label budget (e.g. 56.5 vs 41.6 at
160 labels on Amazon-Google).

Measured (2 algorithm seeds per cell): the hybrid wins most cells and
wins on average, with the clearest margins at the smallest budgets —
where free machine labels matter most — matching the paper's direction.
Individual cells remain noisy at bench scale."""),

    ("Figure 14 — initial-size sweep (E11)",
     ["fig14"],
     """Paper: self-training helps when the initial model is decent
(init ≥ 100) and *hurts* at init = 30, where the weak model infers wrong
labels.

Measured: the same pattern — at init=30 the hybrid trails pure active
learning (wrong machine labels poison training), at init=500 it leads.
This is the paper's central caveat for AutoML-EM-Active, reproduced."""),

    ("Figure 15 — self-training batch size (E12)",
     ["fig15"],
     """Paper: more machine labels help with diminishing returns
(st_batch 0→20→50→200 raises F1, the last step least).

Measured: st_batch 200 beats st_batch 0 on both datasets, but the
steps between are noisy (Abt-Buy peaks at st_batch 20-50 and falls back
at 200), so the diminishing-returns shape is not resolved at this
scale."""),

    ("Extra ablations (DESIGN.md §5)",
     ["extra_search", "extra_concept_drift", "extra_blocking"],
     """Beyond the paper's figures: (a) the model-based searches (SMAC,
TPE) beat random search at equal budget, the premise of Section III-A;
(b) removing the α class-ratio guard from self-training (the paper's
Remark 2 concept-drift defence) costs several F1 points even though raw
machine-label accuracy stays high — drift, not label noise, is the
failure mode; (c) the blocking substrate shows the usual
reduction/recall trade-off the paper's Section II-A describes."""),

    ("Future-work features (DESIGN.md §6)",
     ["extra_query_strategies", "extra_ensemble", "extra_metalearning",
      "extra_labelers"],
     """The paper's conclusion names four future directions; all are
implemented and benched here: (a) alternative query strategies — both
informed strategies (vote-fraction uncertainty and query by committee)
beat passive random sampling; maximum margin and predictive entropy are
not separate strategies, because for a two-class forest both rank the
pool as uncertainty does; (b) auto-sklearn-style greedy ensemble
selection adds test F1 over the single best pipeline on the hardest
dataset; (c) meta-learning warm starts seeded from other product
datasets reach a good pipeline within a very short budget; (d) label
inference: label propagation infers hundreds of extra labels at ~100%
accuracy on the clean publication data.  Transitive closure of the
labeled matches is not a labeler: it inferred none on these benchmarks
(each entity appears once per source, so the match relation has no
multi-edge clusters to close), and the closure itself is what
`resolve`'s union-find computes."""),
]

FOOTER = """\
## Reproducing

```bash
python setup.py develop          # offline editable install
pytest tests/                    # the full unit/property/integration suite
pytest benchmarks/ --benchmark-only   # regenerate every table above
python benchmarks/build_experiments_md.py  # rebuild this file
```
"""


def build() -> str:
    """The text of EXPERIMENTS.md for the committed result files."""
    parts = [HEADER]
    for title, names, commentary in SECTIONS:
        parts.append(f"\n## {title}\n")
        parts.append(commentary.strip() + "\n")
        for name in names:
            path = RESULTS / f"{name}.md"
            if path.exists():
                parts.append("\n" + path.read_text(encoding="utf-8").strip()
                             + "\n")
            else:
                parts.append(f"\n*(missing: run the bench that writes "
                             f"`benchmarks/results/{name}.md`)*\n")
    parts.append("\n" + FOOTER)
    return "\n".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if EXPERIMENTS.md "
                             "differs from the built text")
    args = parser.parse_args(argv)
    text = build()
    if args.check:
        if OUTPUT.read_text(encoding="utf-8") != text:
            print(f"CHECK FAILED: {OUTPUT.name} is not the output of "
                  f"{Path(__file__).name}; rerun it", file=sys.stderr)
            return 1
        print(f"{OUTPUT.name} is up to date")
        return 0
    OUTPUT.write_text(text, encoding="utf-8")
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
