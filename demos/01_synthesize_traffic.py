"""Generate a labeled flow table from a traffic profile.

A profile describes a two-class flow population: per-class log-normal
means for each numeric column, token tables for proto/state, and the
botnet share of rows. Counts are exact and everything is seeded.
"""

import numpy as np

from botsift import class_counts_for, default_profile, generate

profile = default_profile()  # bundled: 50,000 rows at 99.5% botnet

print("bundled profile")
print(f"  rows {profile.row_count}, botnet share {profile.class_ratio}")
print(f"  features: {', '.join(sorted(profile.features))}")
print(f"  token columns: {', '.join(sorted(profile.tokens))}")

# exact class arithmetic, no Bernoulli noise: 0.995 * 10,000 = 9,950
print("\nexact counts (normal, botnet)")
for n in (1_000, 10_000, 50_000):
    print(f"  {n:>6} rows -> {class_counts_for(n, profile.class_ratio)}")

flows = generate(profile, rows=10_000, seed=7)  # a FlowTable, one array per column
print(f"\ngenerated {len(flows)} flows, botnet rows {flows.labels.sum()}")
print(f"columns: {', '.join(flows.columns)}")

# sample means track the profile means class by class
print("\nper-class sample means vs profile means")
for name in ("pkts", "dur", "rate"):
    for c, tag in ((0, "normal"), (1, "botnet")):
        sample = flows.columns[name][flows.labels == c].mean()
        target = profile.features[name][c].mean
        print(f"  {name:>5} {tag}: sample {sample:10.2f}  profile {target:10.2f}")

# the packet total is derived, never sampled on its own
columns = flows.columns
derived = np.array_equal(columns["pkts"], columns["spkts"] + columns["dpkts"])
print(f"\npkts == spkts + dpkts on every row: {derived}")

# same seed, same flows
again = generate(profile, rows=10_000, seed=7)
identical = np.array_equal(flows.labels, again.labels) and all(
    np.array_equal(flows.columns[name], again.columns[name]) for name in flows.columns)
print(f"regenerating with the same seed reproduces the table: {identical}")
