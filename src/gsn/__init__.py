"""Greedy shallow ReLU networks from sphere-sampled dictionaries.

Pipeline: sample candidate directions on the sphere, build the activation
dictionary on the training data, optionally prune it by thresholding the
collapsed ridgelet transform, select nodes with the orthogonal greedy
algorithm, solve the convex outer-weight problem, and optionally fine-tune
with Adam. The bench module reproduces the reference experiments at desk
scale, and the CLI exposes every stage.
"""

__version__ = "0.1.0"
