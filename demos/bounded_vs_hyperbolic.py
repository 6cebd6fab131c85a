"""Bounded flip-flop exchange against hyperbolic ladder growth.

Propagates the two closed-system benchmarks, checks each trajectory against
its closed form, classifies the growth empirically, and writes both series
to CSV (plus a PNG when matplotlib is importable).
"""

import numpy as np

import dqwitness as dq
from dqwitness.cli import write_trajectory_csv

# -- flip-flop sector: bounded cosine exchange -------------------------------

ops = dq.build_two_spin_operators()
j_coupling = 2 * np.pi * 10.0  # rad/s
period = np.pi / j_coupling
times_zq = np.linspace(0.0, 10 * period, 1001)
zq = dq.propagate(
    j_coupling * (ops["S+"].entries + ops["S-"].entries),
    dq.StateVector.basis_state(4, 1),  # |ud>
    times_zq,
    [ops["S0"]],
)
s0 = zq.expectations["S0"]
print("flip-flop exchange under J (S+ + S-), J/2pi = 10 Hz, from |ud>:")
print(f"  max |<S0>| over 10 periods: {np.abs(s0).max():.12f} (never above 1/2)")
print(f"  max deviation from cos(2Jt)/2: {np.abs(s0 - 0.5*np.cos(2*j_coupling*times_zq)).max():.2e}")
print(f"  growth classification: {dq.classify_growth(zq)}")

# -- pair sector on the truncated ladder: sinh^2 growth ----------------------

k, g = 0.5, 1.0
times_dq = np.linspace(0.0, 2.0, 201)
ladder = dq.hyperbolic_signal(dq.build_su11_rep(k, 64), g, times_dq)
signal = ladder.expectations["pair_signal"]
closed = 2 * k * np.sinh(g * times_dq) ** 2
print()
print(f"vacuum pair signal under g (K+ + K-), k = {k}, g = {g}:")
print(f"  truncation sized from the coherent-state tail: {ladder.n_levels} levels, "
      f"top-level tail {ladder.truncation_tail:.2e}")
print(f"  s(t=1) = {signal[100]:.6f} (closed form 2k sinh^2(g) = {closed[100]:.6f})")
print(f"  s(2)/s(1) = {signal[200]/signal[100]:.4f} (super-linear growth)")
print(f"  max |s - 2k sinh^2(gt)|: {np.abs(signal - closed).max():.2e}")

longer = dq.hyperbolic_signal(dq.build_su11_rep(k, 512), g, np.linspace(0, 3, 64))
slope, residual = dq.fit_log_slope(longer)
print(f"  growth classification: {dq.classify_growth(longer)}")
print(f"  fitted exponential rate over the final half-window: {slope:.4f} "
      f"(2g = {2*g}), fit residual {residual:.3f}")

# the same drive on the 4x4 pair triple cannot grow: the finite
# representation folds it into a bounded oscillation
finite = dq.propagate(
    ops["K+"].entries + ops["K-"].entries,
    dq.StateVector.basis_state(4, 3),  # |dd>
    np.linspace(0.0, 20.0, 401),
    [ops["K0"]],
)
print()
print("same pair drive on the 4x4 representation:")
print(f"  max |<K0>| = {np.abs(finite.expectations['K0']).max():.6f} -> "
      f"{dq.classify_growth(finite)} (the unbounded ladder is essential)")

write_trajectory_csv(zq, "zq_signal.csv")
write_trajectory_csv(ladder, "dq_signal.csv")
print()
print("wrote zq_signal.csv and dq_signal.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.2))
    ax1.plot(times_zq, s0, lw=1)
    ax1.set_xlabel("time (s)")
    ax1.set_ylabel(r"$\langle S_0 \rangle$")
    ax1.set_title("bounded exchange")
    ax2.plot(times_dq, signal, lw=1, label="ladder")
    ax2.plot(times_dq, closed, "--", lw=1, label=r"$2k\,\sinh^2(gt)$")
    ax2.set_xlabel(r"$g t$")
    ax2.set_ylabel("pair signal")
    ax2.set_title("hyperbolic growth")
    ax2.legend()
    fig.tight_layout()
    fig.savefig("bounded_vs_hyperbolic.png", dpi=150)
    print("wrote bounded_vs_hyperbolic.png")
except ImportError:
    print("matplotlib not available; skipped the figure")
