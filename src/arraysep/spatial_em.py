"""EM spatial clustering over interchannel phase differences.

Each time-frequency bin's observed phase differences (every channel paired
with a reference channel) are modeled per source as a wrapped delay
prediction plus a per-frequency Gaussian residual; an optional uniform
outlier component absorbs diffuse noise. Posterior source probabilities
double as soft separation masks (MESSL-style clustering, phase only).

Delays are updated by search over a fixed candidate set that always
contains the incumbent, so every M step is a coordinate ascent on the
expected complete-data log likelihood and the log likelihood trace is
non-decreasing. Each candidate's weighted squared wrapped residual is
evaluated exactly in closed form: with the phases of a frequency sorted,
the frames whose residual wraps form a prefix and a suffix, so prefix sums
over the sorted frames and a binary search per candidate and frequency give
every score. One pair costs O(F T log T + G F log T) time and O(F T + G F)
memory for F frequencies, T frames and G candidates, where direct
evaluation costs O(G F T) in both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .errors import DataError, NumericalError
from .signal import MaskGrid

VAR_FLOOR = 1e-4          # rad^2, keeps residual Gaussians proper
_LOG_UNIFORM = -np.log(2.0 * np.pi)
_PRIOR_FLOOR = 1e-300


def default_delay_grid(max_delay: float = 8.0, step: float = 0.25) -> np.ndarray:
    """Symmetric candidate delays in samples, always including zero."""
    if not (step > 0 and np.isfinite(max_delay)):
        raise DataError(f"delay grid needs step > 0 and a finite max_delay, "
                        f"got step {step}, max_delay {max_delay}")
    n = int(round(max_delay / step))
    return np.arange(-n, n + 1) * step


@dataclass
class MesslConfig:
    """Clustering model size, delay search grid, and stopping rule."""

    n_sources: int = 1
    n_iterations: int = 16
    delay_grid: np.ndarray = field(default_factory=default_delay_grid)
    reference_channel: int = 0
    convergence_tol: float = 1e-5
    use_garbage: bool = True
    target_source: int | None = None

    def __post_init__(self):
        self.delay_grid = np.asarray(self.delay_grid, dtype=np.float64)
        if self.n_sources < 1:
            raise DataError("need at least one source")
        if self.n_iterations < 1:
            raise DataError("need at least one EM iteration")
        if self.delay_grid.size == 0:
            raise DataError("delay grid must be nonempty")
        if np.abs(self.delay_grid).min() > 1e-12:
            raise DataError("delay grid must contain zero")
        if self.target_source is not None and not (
            0 <= self.target_source < self.n_sources
        ):
            raise DataError("target source index out of range")

    @property
    def grid_step(self) -> float:
        if self.delay_grid.size < 2:
            return 0.0
        return float(np.min(np.diff(np.sort(self.delay_grid))))


@dataclass
class MesslParams:
    """Fitted model parameters.

    delays: (n_sources, n_pairs) in samples.
    residual_mean, residual_var: (n_sources, n_freq) in rad and rad^2.
    priors: mixing weights over components, garbage (if any) last.
    """

    delays: np.ndarray
    residual_mean: np.ndarray
    residual_var: np.ndarray
    priors: np.ndarray


@dataclass
class MesslResult:
    """Posterior masks (components in order, garbage last), parameters,
    the log likelihood trace, the selected target component, and whether
    the convergence tolerance stopped EM before its iteration cap."""

    masks: tuple
    params: MesslParams
    loglik_trace: np.ndarray
    target_index: int
    pair_channels: tuple
    converged: bool

    @property
    def target_mask(self) -> MaskGrid:
        return self.masks[self.target_index]


def _wrap(x: np.ndarray) -> np.ndarray:
    """Wrap phases to (-pi, pi] up to the sign of the boundary."""
    return x - 2.0 * np.pi * np.round(x / (2.0 * np.pi))


def _delay_scores(phi, weight, mean, cand, omega) -> np.ndarray:
    """Score every candidate delay of one pair for every source.

    Returns (n_sources, n_cand) values of
    -sum_ft weight[k] * (_wrap(phi + omega * cand[g]) - mean[k]) ** 2,
    computed in closed form without a candidate x frame array.

    phi: (n_freq, n_frames) phase differences in [-pi, pi] of one pair.
    weight: (n_sources, n_freq, n_frames); mean: (n_sources, n_freq).
    """
    n_freq, n_frames = phi.shape
    order = np.argsort(phi, axis=1) + n_frames * np.arange(n_freq)[:, None]
    phi = phi.reshape(-1)[order]

    # With turns = round(omega tau / 2 pi) and shift = omega tau - 2 pi turns
    # in [-pi, pi], the residual is phi + shift - mean, less 2 pi on frames
    # with phi > pi - shift and plus 2 pi on frames with phi < -pi - shift:
    # a suffix (only when shift >= 0) and a prefix (only when shift <= 0) of
    # each sorted row. _wrap rounds half to even, so a frame exactly on the
    # boundary wraps as well when turns is odd.
    pred = np.outer(omega, cand)                           # (n_freq, n_cand)
    turns = np.round(pred / (2.0 * np.pi))
    shift = pred - 2.0 * np.pi * turns
    odd = (turns.astype(np.intp) & 1).astype(bool)
    # Offsetting row f by 4 pi f keeps the flattened rows sorted, so a flat
    # search finds every split; f (n_frames + 1) + j then indexes split j of
    # row f in the flattened prefix sums. The offset keeps equal values
    # equal but can merge values within ~1e-12 rad of an edge, where the
    # direct evaluation's wrap decision is itself set by rounding.
    freq = np.broadcast_to(np.arange(n_freq)[:, None], shift.shape)
    offset = 4.0 * np.pi * freq
    keys = (phi + offset[:, :1]).ravel()

    def split(select, edge, inclusive):
        # Frames of the row below the edge ("<=" where inclusive, else "<").
        edge = edge[select] + offset[select]
        edge = np.where(inclusive[select], np.nextafter(edge, np.inf), edge)
        return np.searchsorted(keys, edge) + freq[select]

    lo = freq * (n_frames + 1)                             # prefix ends
    hi = lo + n_frames                                     # suffix starts
    down, up = shift >= 0.0, shift <= 0.0
    hi[down] = split(down, np.pi - shift, ~odd)
    lo[up] = split(up, -np.pi - shift, odd)

    w = weight.reshape(len(weight), -1)[:, order]          # (K, F, T)
    dev = phi[None] - mean[:, :, None]
    wdev = w * dev
    cum_w = np.zeros(w.shape[:2] + (n_frames + 1,))
    cum_d = np.zeros(w.shape[:2] + (n_frames + 1,))
    np.cumsum(w, axis=2, out=cum_w[:, :, 1:])
    np.cumsum(wdev, axis=2, out=cum_d[:, :, 1:])
    tot_w, tot_d = cum_w[:, :, -1], cum_d[:, :, -1]         # (K, F)
    cum_w, cum_d = cum_w.reshape(len(w), -1), cum_d.reshape(len(w), -1)
    # (dev + shift + c)^2 summed over frames, with c = 2 pi on the prefix,
    # -2 pi on the suffix and 0 elsewhere.
    up_w = np.take(cum_w, lo, axis=1)                      # (K, F, G)
    down_w = tot_w[:, :, None] - np.take(cum_w, hi, axis=1)
    net_d = np.take(cum_d, lo, axis=1) + np.take(cum_d, hi, axis=1)
    err = (
        np.sum(wdev * dev, axis=(1, 2))[:, None]
        + np.einsum("kf,fg->kg", 2.0 * tot_d, shift)
        + np.einsum("kf,fg->kg", tot_w, shift * shift)
        + np.einsum("kfg,fg->kg", up_w, 4.0 * np.pi * (np.pi + shift))
        + np.einsum("kfg,fg->kg", down_w, 4.0 * np.pi * (np.pi - shift))
        + 4.0 * np.pi * (net_d.sum(axis=1) - tot_d.sum(axis=1)[:, None])
    )
    return -err


def observed_ipd(specs, reference_channel: int = 0):
    """Phase of each channel against the reference channel.

    Returns:
        phi: (n_pairs, n_freq, n_frames) wrapped phase differences in
            (-pi, pi], pair p being channel pair_channels[p] minus the
            reference.
        pair_channels: tuple of non-reference channel indices in order.
    """
    cross, pairs = _cross_spectra(specs, reference_channel)
    return np.angle(cross), pairs


def _cross_spectra(specs, reference_channel: int):
    """Each non-reference channel times the conjugate reference, stacked
    as (n_pairs, n_freq, n_frames), and the non-reference channels."""
    specs = list(specs)
    if len(specs) < 2:
        raise DataError("need at least two channels for phase differences")
    if not 0 <= reference_channel < len(specs):
        raise DataError(f"reference channel {reference_channel} out of range")
    shape = specs[0].bins.shape
    for s in specs:
        if s.bins.shape != shape:
            raise DataError("channel spectrograms must share shape")
    ref = specs[reference_channel].bins
    pairs = tuple(c for c in range(len(specs)) if c != reference_channel)
    return np.stack([specs[c].bins * np.conj(ref) for c in pairs]), pairs


def _phat_correlation(cross: np.ndarray, omega: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Summed phase-transform cross-correlation evaluated on the delay grid."""
    total = np.zeros(grid.size)
    steering = np.exp(1j * np.outer(grid, omega))
    for p in range(cross.shape[0]):
        mag = np.abs(cross[p])
        normed = np.where(mag > 0, cross[p] / np.maximum(mag, 1e-30), 0.0)
        spectrum = normed.sum(axis=1)
        total += np.real(steering @ spectrum)
    return total


def _top_peaks(values: np.ndarray, grid: np.ndarray, count: int, min_sep: float) -> np.ndarray:
    """Greedy selection of the strongest grid points with minimum spacing."""
    order = np.argsort(values)[::-1]
    chosen = []
    for idx in order:
        if all(abs(grid[idx] - grid[j]) >= min_sep for j in chosen):
            chosen.append(idx)
        if len(chosen) == count:
            break
    while len(chosen) < count:
        for idx in order:
            if idx not in chosen:
                chosen.append(idx)
                break
    return grid[np.array(chosen[:count])]


def run_em(specs, cfg: MesslConfig) -> MesslResult:
    """Fit the clustering model and return posterior masks.

    The trace holds one log likelihood per E step including a final pass
    after the last M step, so masks and parameters are consistent.
    """
    specs = list(specs)
    cross, pairs = _cross_spectra(specs, cfg.reference_channel)
    phi = np.angle(cross)
    if sum(float(np.sum(np.abs(s.bins) ** 2)) for s in specs) == 0.0:
        raise NumericalError("silent input: no energy in any channel")

    window_size = specs[0].config.window_size
    n_freq, n_frames = specs[0].bins.shape
    n_pairs = len(pairs)
    k_total = cfg.n_sources + (1 if cfg.use_garbage else 0)
    omega = 2.0 * np.pi * np.arange(n_freq) / window_size

    grid = np.asarray(cfg.delay_grid, dtype=np.float64)
    if grid.size < cfg.n_sources:
        raise DataError(
            f"delay grid has {grid.size} candidates for {cfg.n_sources} sources"
        )

    peaks = _top_peaks(
        _phat_correlation(cross, omega, grid),
        grid,
        cfg.n_sources,
        min_sep=max(cfg.grid_step, 1.0),
    )
    delays = np.tile(peaks[:, None], (1, n_pairs))
    mean = np.zeros((cfg.n_sources, n_freq))
    var = np.ones((cfg.n_sources, n_freq))
    log_priors = np.full(k_total, -np.log(k_total))

    def residuals(k: int) -> np.ndarray:
        # A channel lagging the reference by tau samples shows the phase
        # difference -omega * tau, so the residual adds the prediction back.
        pred = np.outer(delays[k], omega)          # (n_pairs, n_freq)
        return _wrap(phi + pred[:, :, None])

    def e_step():
        log_post = np.empty((k_total, n_freq, n_frames))
        for k in range(cfg.n_sources):
            r = residuals(k)
            dev = r - mean[k][None, :, None]
            log_norm = -0.5 * np.log(2.0 * np.pi * var[k])
            log_post[k] = (
                log_norm[None, :, None]
                - dev * dev / (2.0 * var[k][None, :, None])
            ).sum(axis=0)
        if cfg.use_garbage:
            log_post[-1] = n_pairs * _LOG_UNIFORM
        log_post += log_priors[:, None, None]
        total = logsumexp(log_post, axis=0)
        gamma = np.exp(log_post - total[None])
        return gamma, float(np.sum(total))

    trace = []
    gamma = None
    converged = False
    for iteration in range(cfg.n_iterations):
        gamma, loglik = e_step()
        trace.append(loglik)
        if iteration >= 1:
            prev = trace[-2]
            if abs(loglik - prev) <= cfg.convergence_tol * (abs(prev) + 1.0):
                converged = True
                break

        # M step, coordinate ascent: delays first (old mean/var), then the
        # residual Gaussians in closed form, then the priors.
        # Each source searches the grid plus its own incumbent when that
        # lies off the grid; the first maximum wins.
        weight = gamma[: cfg.n_sources] / (2.0 * var[:, :, None])
        for p in range(n_pairs):
            off = ~np.any(np.abs(grid[None] - delays[:, p, None]) < 1e-12, axis=1)
            cand = np.append(grid, delays[off, p])
            score = _delay_scores(phi[p], weight, mean, cand, omega)
            own = (np.flatnonzero(off), grid.size + np.arange(off.sum()))
            incumbent = score[own]
            score[:, grid.size:] = -np.inf
            score[own] = incumbent
            delays[:, p] = cand[np.argmax(score, axis=1)]

        for k in range(cfg.n_sources):
            r = residuals(k)
            denom = n_pairs * gamma[k].sum(axis=1)            # (n_freq,)
            ok = denom > 1e-12
            num_mean = np.einsum("pft,ft->f", r, gamma[k])
            mean[k][ok] = num_mean[ok] / denom[ok]
            dev = r - mean[k][None, :, None]
            num_var = np.einsum("pft,ft->f", dev * dev, gamma[k])
            var[k][ok] = np.maximum(num_var[ok] / denom[ok], VAR_FLOOR)

        priors = gamma.reshape(k_total, -1).mean(axis=1)
        log_priors = np.log(np.maximum(priors, _PRIOR_FLOOR))

    gamma, loglik = e_step()
    trace.append(loglik)

    if cfg.target_source is not None:
        target_index = cfg.target_source
    else:
        target_index = int(np.argmin(np.mean(np.abs(delays), axis=1)))

    masks = tuple(MaskGrid(values=gamma[k]) for k in range(k_total))
    params = MesslParams(
        delays=delays,
        residual_mean=mean,
        residual_var=var,
        priors=np.exp(log_priors),
    )
    return MesslResult(
        masks=masks,
        params=params,
        loglik_trace=np.asarray(trace),
        target_index=target_index,
        pair_channels=tuple(pairs),
        converged=converged,
    )


def binarize(mask: MaskGrid, threshold: float = 0.5) -> MaskGrid:
    """Hard 0/1 mask: one where the value strictly exceeds the threshold."""
    return MaskGrid(values=(mask.values > threshold).astype(np.float64))
