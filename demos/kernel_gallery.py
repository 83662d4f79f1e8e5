"""Tour of the kernel families and the Gram-matrix machinery.

Shows how the five stationary families decay with distance, how weighted
combinations stay positive semi-definite, and how prediction folds the
centering of a test kernel against the training column means into the
model's coefficients, so the plain cross kernel is all it needs.

Run:  python3 demos/kernel_gallery.py
"""

import numpy as np

from kfpls import (
    KernelSpec, center_train, fit_kpls, gram_test, gram_train, kernel_eval, predict_kpls,
)
from kfpls.kernels import FAMILY_NAMES, kernel_matrix, train_sq_dists
from kfpls.kpls import affine_coef

x = np.zeros(1)
print("kernel value by distance (sigma = 1):")
distances = (0.0, 0.5, 1.0, 2.0, 4.0)
print("  family    " + "  ".join(f"r={r:<4}" for r in distances))
for family in FAMILY_NAMES:
    spec = KernelSpec.create([family])
    row = [kernel_eval(spec, x, np.array([r])) for r in distances]
    print(f"  {family:9s} " + "  ".join(f"{v:.3f}" for v in row))

print("\na weighted combination stays a valid kernel:")
rng = np.random.default_rng(0)
combo = KernelSpec.create(
    ["gaussian", "matern32", "cauchy"], sigma=[0.7, 1.0, 2.0],
    gamma=[0.5, 0.3, 0.2], delta=1e-3,
)
X = rng.normal(size=(20, 3))
K_plain = kernel_matrix(combo, train_sq_dists(X))
print(f"  families {combo.families}, weights {np.round(combo.gamma, 2)}")
print(f"  smallest Gram eigenvalue before the ridge: "
      f"{np.linalg.eigvalsh(K_plain).min():.2e} (PSD up to round-off)")

K = gram_train(combo, X)
K_centered, col_means = center_train(K)
print(f"\ncentering: row sums of the centered Gram are "
      f"{np.abs(K_centered.sum(axis=1)).max():.2e}")

y = np.sin(X[:, 0]) + X[:, 1] ** 2
model = fit_kpls(X, y, 4, combo)
X_new = rng.normal(size=(5, 3))
K_cross = gram_test(combo, X_new, X)
H = np.eye(20) - 1.0 / 20
explicit = (K_cross - col_means) @ H @ model.pls.coef + model.y_means
C, b = affine_coef(model.pls.coef, model.col_means, model.y_means)
print("a test kernel is centered on the training column means; prediction")
print("folds that into the coefficients, K_cross @ C + b with C = H B:")
print(f"  max deviation from explicit centering on 5 rows: "
      f"{np.abs(K_cross @ C + b - explicit).max():.2e}")
print(f"  predict_kpls makes the same map: "
      f"{np.abs(predict_kpls(model, X_new) - explicit).max():.2e}")

print("\nthe optimizer's view is a flat log-parameter vector:")
print(f"  {combo.param_names()}")
print(f"  {np.round(combo.theta(), 3)}")
