"""Comparing the three parameter-update rules on the same problem.

Plain gradient steps, heavy-ball momentum, and the lookahead rule all
drive the kernel to the same region on the two-peak regression problem;
momentum mostly changes how fast the early iterations travel.

Run:  python3 demos/update_rules.py
"""

import numpy as np

from kfpls import FlowConfig, KernelSpec, gen_peaks, run_kernel_flows

ds = gen_peaks(200, 0.05, seed=1)
spec0 = KernelSpec.create(["gaussian"], sigma=1.0, delta=1.0)

settings = [
    ("vanilla", dict(update_rule="vanilla", learning_rate=0.25)),
    ("polyak", dict(update_rule="polyak", learning_rate=0.1, momentum=0.8)),
    ("nesterov", dict(update_rule="nesterov", learning_rate=0.1, momentum=0.8)),
]

print("120 iterations from sigma = delta = 1 on the two-peak data:\n")
print("  rule      final sigma  final delta  best smoothed loss  loss @ iter 20")
for name, overrides in settings:
    config = FlowConfig(n_iter=120, n_subsamples=8, n_lv=3, seed=3,
                        patience=10**6, **overrides)
    spec, trace = run_kernel_flows(ds.X_cal, ds.Y_cal, config, spec0)
    at20 = trace.smoothed_loss[19] if len(trace.smoothed_loss) > 19 else np.nan
    print(f"  {name:9s} {spec.sigma[0]:10.3f} {spec.delta:12.4f} "
          f"{trace.best_smoothed_loss:18.4f} {at20:14.4f}")

print("\nthe trace records every iteration; the flat table export looks like:")
config = FlowConfig(n_iter=5, n_subsamples=4, n_lv=3, seed=3)
_, trace = run_kernel_flows(ds.X_cal, ds.Y_cal, config, spec0)
header, rows = trace.to_table()
print("  " + ",".join(header))
for row in rows[:3]:
    print("  " + ",".join(f"{v:.4f}" for v in row))
