"""From a raw flow CSV to a scaled numeric dataset with scored features.

The pipeline is cleanse (drop rows with missing or unparseable cells in
any column the loader kept), encode (every token column, proto/state
here, to integer codes in one step), convert to a numeric matrix,
min-max scale, and score each feature with the chi-square statistic
against the class label. Selection keeps features scoring strictly
above the mean score.
"""

import csv
import os
import tempfile

from botsift import (apply_scaler, chi2_scores, cleanse, default_profile,
                     encode, fit_scaler, generate, load_csv, select_features,
                     to_dataset, write_records_csv)

workdir = tempfile.mkdtemp(prefix="botsift-demo-")
raw_csv = os.path.join(workdir, "flows.csv")

# write a flow CSV, then damage a few rows the way real exports are damaged
flows = generate(default_profile(), rows=2_000, seed=5)
write_records_csv(flows, raw_csv)
with open(raw_csv, newline="", encoding="utf-8") as fh:
    rows = list(csv.reader(fh))
rows[3][0] = ""          # missing packet count
rows[10][2] = "oops"     # unparseable duration
with open(raw_csv, "w", newline="", encoding="utf-8") as fh:
    csv.writer(fh).writerows(rows)

loaded = load_csv(raw_csv)
kept = cleanse(loaded)
print(f"loaded {len(loaded)} rows, cleansing kept {len(kept)} "
      f"(dropped {len(loaded) - len(kept)})")
lacking = {name: n for name, n in kept.missing_counts.items() if n}
print(f"rows lacking a value, by column: {lacking}")

# categorical tokens become integer codes, by first appearance
encoded, codes = encode(kept)
print(f"proto codes: {codes['proto']}")
dataset = to_dataset(encoded)
print(f"dataset: {dataset.n_rows} rows x {len(dataset.feature_names)} features, "
      f"class counts {dataset.class_counts}")

scaler = fit_scaler(dataset)
scaled = apply_scaler(dataset, scaler)
lo, hi = scaled.features.min(), scaled.features.max()
print(f"after min-max scaling values span [{lo:.1f}, {hi:.1f}]")

report = chi2_scores(scaled)
print(f"\nchi-square scores (mean {report.mean_score:.2f})")
for name in report.ranked_names:
    score = report.scores[list(report.feature_names).index(name)]
    mark = "*" if name in report.selected else " "
    print(f" {mark} {name:>6} {score:12.2f}")

selected = select_features(scaled, report)
print(f"\nselected strictly above the mean: {selected.feature_names}")
