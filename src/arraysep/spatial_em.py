"""EM spatial clustering over interchannel phase differences.

Each time-frequency bin's observed phase differences (every channel paired
with a reference channel) are modeled per source as a wrapped delay
prediction plus a per-frequency Gaussian residual; an optional uniform
outlier component absorbs diffuse noise. Posterior source probabilities
double as soft separation masks (MESSL-style clustering, phase only).

Delays start at grid points (the strongest PHAT peaks) and are updated by
search over the same fixed grid, which therefore always contains the
incumbent, so every M step is a coordinate ascent on the expected
complete-data log likelihood and the log likelihood trace is
non-decreasing. Each candidate's weighted squared wrapped residual is
evaluated exactly in closed form: with the phases of a frequency sorted,
the frames whose residual wraps form a prefix and a suffix, so prefix sums
over the sorted frames and a binary search per candidate and frequency give
every score. The sort and the search depend only on the phases and the grid,
so each call does them once, in O(P F T log T + P G F log T) time and
O(P (F T + G F)) memory (the sorted phases, their int32 permutations and
the int32 splits) for P pairs, F frequencies, T frames and G candidates.
Each M step then costs O(K P (F T + G F)) for K sources, where direct
evaluation costs O(K P G F T).

The wrapped residuals, one (K, P, F, T) array, are kept for the whole call.
Fitted delays mostly stay where they start, so after each delay search only
the (source, pair) slices whose delay moved are wrapped again, from the
sorted phases and put back through the sort permutation; wrapping is
elementwise, so a slice has the same bits either way. The unsorted (P, F, T)
phases are dropped once the first residuals are formed. The E step and the
variance update need the squared deviations from the means only summed over
pairs: one (K, F, T) array, which each M step builds pair by pair. It, the
posteriors, the search weights and the scoring buffers are allocated once
per call and overwritten by every iteration, not taken as fresh pages in
each. The E step turns the log posteriors into posteriors in place, in
one pass shifted by each bin's maximum (see _normalize).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .signal import MaskGrid, _mask_grid, check_channels
from .util import (
    _array,
    _at_least,
    _bool,
    _checked,
    _expect,
    _fields,
    _finite,
    _nonnegative,
    _optional,
)

VAR_FLOOR = 1e-4          # rad^2, keeps residual Gaussians proper
MAX_DELAY_CANDIDATES = 4097   # bounds the (sources, freqs, candidates) scores
_LOG_UNIFORM = -np.log(2.0 * np.pi)
_PRIOR_FLOOR = 1e-300


def default_delay_grid(max_delay: float = 8.0, step: float = 0.25) -> np.ndarray:
    """Symmetric candidate delays in samples, always including zero."""
    if not (0 < step < np.inf and 0 <= max_delay < np.inf):
        raise DataError(f"delay grid needs a finite step > 0 and max_delay >= 0, "
                        f"got step {step}, max_delay {max_delay}")
    n = np.round(max_delay / step)
    if 2 * n + 1 > MAX_DELAY_CANDIDATES:
        raise DataError(f"delay grid of {2 * n + 1:g} candidates, limit {MAX_DELAY_CANDIDATES}")
    return np.arange(-int(n), int(n) + 1) * step


@dataclass(frozen=True)
class MesslConfig:
    """Clustering model size, delay search grid, and stopping rule."""

    n_sources: int = 1
    n_iterations: int = 16
    delay_grid: np.ndarray = field(default_factory=default_delay_grid)
    reference_channel: int = 0
    convergence_tol: float = 1e-5
    use_garbage: bool = True
    target_source: int | None = None

    _converters = dict(
        n_sources=_at_least(1), n_iterations=_at_least(1),
        reference_channel=_at_least(0), convergence_tol=_nonnegative,
        use_garbage=_bool, target_source=_optional(_at_least(0)),
    )

    def __post_init__(self):
        # The grid is a read-only copy, so that no in-place write skips these checks.
        _fields(self, **self._converters, delay_grid=lambda grid: _array(1)(grid).copy())
        grid = self.delay_grid
        grid.flags.writeable = False
        if not self.n_sources <= grid.size <= MAX_DELAY_CANDIDATES:
            raise DataError(
                f"delay grid has {grid.size} candidates for {self.n_sources} "
                f"sources, limit {MAX_DELAY_CANDIDATES}"
            )
        if np.abs(grid).min() > 1e-12:
            raise DataError("delay grid must contain zero")
        if self.target_source is not None and self.target_source >= self.n_sources:
            raise DataError("target source index out of range")

    @property
    def grid_step(self) -> float:
        if self.delay_grid.size < 2:
            return 0.0
        return float(np.min(np.diff(np.sort(self.delay_grid))))


_messl_config = _expect(MesslConfig, "a MesslConfig")


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
    """Wrap phases to (-pi, pi] up to the sign of the boundary, in place.

    Returns x. Only one temporary the size of x is alive at a time, so
    pass a fresh array, such as a sum.
    """
    t = x / (2.0 * np.pi)
    np.round(t, out=t)
    t *= 2.0 * np.pi
    x -= t
    return x


def _delay_splits(phi, cand, omega):
    """Sort each pair's phases and find every candidate's wrap splits.

    phi: (n_pairs, n_freq, n_frames) phase differences in [-pi, pi].
    Returns the sorted phases and the int32 sorting permutations into each
    pair's flattened phases, both (n_pairs, n_freq, n_frames), the
    (n_freq, n_cand) wrapped prediction shift, its score factors shift**2,
    4 pi (pi + shift) and 4 pi (pi - shift), and int32 (n_pairs, n_freq,
    n_cand) prefix ends lo and suffix starts hi into each pair's flattened
    (n_freq, n_frames + 1) prefix sums. None of it depends on the EM
    parameters, so EM computes it once.
    """
    n_pairs, n_freq, n_frames = phi.shape
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

    def edges(select, edge, inclusive):
        # Searching for these finds the frames of a row below the edge
        # ("<=" where inclusive, else "<").
        edge = edge[select] + offset[select]
        return np.where(inclusive[select], np.nextafter(edge, np.inf), edge)

    down, up = shift >= 0.0, shift <= 0.0
    down_edges = edges(down, np.pi - shift, ~odd)
    up_edges = edges(up, -np.pi - shift, odd)
    order = np.argsort(phi, axis=2).astype(np.int32)
    order += (n_frames * np.arange(n_freq, dtype=np.int32))[:, None]
    lo = np.broadcast_to(freq * (n_frames + 1), (n_pairs,) + shift.shape).astype(np.int32)
    hi = lo + n_frames
    sorted_phi = np.empty(phi.shape)
    for p in range(n_pairs):
        np.take(phi[p].reshape(-1), order[p], out=sorted_phi[p])
        keys = (sorted_phi[p] + offset[:, :1]).ravel()
        hi[p][down] = np.searchsorted(keys, down_edges) + freq[down]
        lo[p][up] = np.searchsorted(keys, up_edges) + freq[up]
    factors = (shift * shift, 4.0 * np.pi * (np.pi + shift), 4.0 * np.pi * (np.pi - shift))
    return sorted_phi, order, shift, factors, lo, hi


def _score_work(n_sources: int, n_freq: int, n_frames: int):
    """Buffers for _delay_scores, allocated once per EM call: a pair's
    sorted weights and weighted deviations, stacked, their prefix sums with
    a zero first column, and the deviations from the means."""
    cum = np.empty((2, n_sources, n_freq, n_frames + 1))
    cum[..., 0] = 0.0
    return (np.empty((2, n_sources, n_freq, n_frames)), cum,
            np.empty((n_sources, n_freq, n_frames)))


def _delay_scores(splits, weight, mean, work) -> np.ndarray:
    """Score every candidate delay of every pair for every source.

    Returns (n_pairs, n_sources, n_cand) values of
    -sum_ft weight[k] * (_wrap(phi[p] + omega * cand[g]) - mean[k]) ** 2,
    computed in closed form without a candidate x frame array.

    splits: _delay_splits(phi, cand, omega) of the (n_pairs, n_freq,
    n_frames) phases. weight: (n_sources, n_freq, n_frames); mean:
    (n_sources, n_freq). work: _score_work buffers of that size, which
    every pair overwrites.
    """
    sorted_phi, orders, shift, (shift_sq, up_factor, down_factor), los, his = splits
    n_sources = len(weight)
    flat_weight = weight.reshape(n_sources, -1)
    stacked, cum, dev = work
    w, wdev = stacked
    tot_w, tot_d = cum[..., -1]                            # (K, F) views
    flat_cum = cum.reshape(2, n_sources, -1)
    scores = []
    for phi_p, order, lo, hi in zip(sorted_phi, orders, los, his):
        # One cumsum and one gather per split end cover both prefix sums.
        # The indices are in range by construction, and mode="clip" gathers
        # unbuffered.
        np.take(flat_weight, order, axis=1, out=w, mode="clip")   # (K, F, T)
        np.subtract(phi_p[None], mean[:, :, None], out=dev)
        np.multiply(w, dev, out=wdev)
        np.cumsum(stacked, axis=3, out=cum[..., 1:])
        # (dev + shift + c)^2 summed over frames, with c = 2 pi on the
        # prefix, -2 pi on the suffix and 0 elsewhere.
        (up_w, lo_d), (hi_w, hi_d) = (np.take(flat_cum, lo, axis=2, mode="clip"),
                                      np.take(flat_cum, hi, axis=2, mode="clip"))
        down_w = tot_w[:, :, None] - hi_w
        net_d = lo_d + hi_d
        err = (
            # The weights are in the prefix sums, so w holds the squares.
            np.sum(np.multiply(wdev, dev, out=w), axis=(1, 2))[:, None]
            + np.einsum("kf,fg->kg", 2.0 * tot_d, shift)
            + np.einsum("kf,fg->kg", tot_w, shift_sq)
            + np.einsum("kfg,fg->kg", up_w, up_factor)
            + np.einsum("kfg,fg->kg", down_w, down_factor)
            + 4.0 * np.pi * (net_d.sum(axis=1) - tot_d.sum(axis=1)[:, None])
        )
        scores.append(-err)
    return np.stack(scores)


def _pair_sum_sq(resid, mean, out, scratch) -> np.ndarray:
    """Sum over pairs, in order, of (resid - mean) ** 2 into out; resid is
    (n_sources, n_pairs, F, T), mean (n_sources, F), scratch like out."""
    np.subtract(resid[:, 0], mean[:, :, None], out=out)
    np.square(out, out=out)
    for p in range(1, resid.shape[1]):
        np.subtract(resid[:, p], mean[:, :, None], out=scratch)
        out += np.square(scratch, out=scratch)
    return out


def _normalize(log_post: np.ndarray) -> np.ndarray:
    """Turn EM's (components, F, T) log posteriors into posteriors in place
    and return each bin's log normalizer. The input must be finite. EM's
    is: with wrapped residuals, means in [-pi, pi], variances of at least
    VAR_FLOOR and priors of at least _PRIOR_FLOOR, every log posterior lies
    within about P 2e5 + 700 of zero for P pairs, so a - top cannot overflow.
    """
    top = log_post.max(axis=0)
    e = np.exp(np.subtract(log_post, top, out=log_post), out=log_post)
    s = e.sum(axis=0)
    e /= s
    return np.log(s) + top


def _pair_phases(specs, reference_channel: int, grid: np.ndarray):
    """Check the channels, then read each channel pair once for its phase
    differences and its PHAT cross-correlation term on the delay grid.

    Returns the (n_pairs, n_freq, n_frames) phases, the non-reference
    channels, the bin frequencies omega and the summed correlation. Neither
    depends on the level, so each channel is scaled by 2^-e, e the frexp
    exponent of its largest component magnitude: exact for normal bins, and
    no product or PHAT sum of components below 1 can overflow. Spectrogram
    bins are C-contiguous, so one float64 view of a channel's components
    gives its peak and takes its one ldexp. A pair's
    product is conj(ref) * bins in that operand order, since with FMA its
    last bit depends on it; the phases have np.angle's bits. PHAT divides
    each bin by its magnitude where that is normal and zeroes it elsewhere.
    """
    specs = check_channels(specs)
    if len(specs) < 2:
        raise DataError("need at least two channels for phase differences")
    if not specs[0].bins.size:
        raise DataError(f"spectrograms have no bins, shape {specs[0].bins.shape}")
    if not 0 <= reference_channel < len(specs):
        raise DataError(f"reference channel {reference_channel} out of range")
    parts = [s.bins.view(np.float64) for s in specs]   # (F, 2 T) each
    peaks = [max(x.max(), -x.min()) for x in parts]
    if not any(peaks):
        raise NumericalError("silent input: no energy in any channel")
    exponents = np.frexp(peaks)[1]

    def scale(c, out):  # by ldexp: 2.0 ** -e overflows for a subnormal peak
        np.ldexp(parts[c], -exponents[c], out=out.view(np.float64))
        return out

    ref_conj = np.conj(scale(reference_channel, np.empty_like(specs[reference_channel].bins)))
    pairs = tuple(c for c in range(len(specs)) if c != reference_channel)
    omega = 2.0 * np.pi * np.arange(len(ref_conj)) / specs[0].config.window_size
    steering = np.exp(1j * np.outer(grid, omega))
    phi = np.empty((len(pairs),) + ref_conj.shape)
    cross = np.empty_like(ref_conj)
    cross_parts = cross.view(np.float64)
    correlation = np.zeros(grid.size)
    for p, c in enumerate(pairs):
        np.multiply(ref_conj, scale(c, cross), out=cross)
        np.arctan2(cross_parts[:, 1::2], cross_parts[:, ::2], out=phi[p])
        mag = np.abs(cross)
        normal = mag >= np.finfo(np.float64).tiny
        np.divide(cross, mag, out=cross, where=normal)  # PHAT in place
        cross[~normal] = 0.0
        correlation += np.real(steering @ cross.sum(axis=1))
    return phi, pairs, omega, correlation


def _top_peaks(values: np.ndarray, grid: np.ndarray, count: int, min_sep: float) -> np.ndarray:
    """The strongest grid points at least min_sep apart, strongest first;
    when too few are that far apart, the strongest of the rest fill up."""
    chosen = []
    for spaced, idx in itertools.product((True, False), np.argsort(values)[::-1]):
        if len(chosen) == count:
            break
        if idx not in chosen and (
            not spaced or all(abs(grid[idx] - grid[j]) >= min_sep for j in chosen)
        ):
            chosen.append(idx)
    return grid[np.array(chosen)]


def run_em(specs, cfg: MesslConfig) -> MesslResult:
    """Fit the clustering model and return posterior masks.

    The trace holds one log likelihood per E step including a final pass
    after the last M step, so masks and parameters are consistent. On
    convergence EM stops before an M step, so the last value repeats.
    """
    cfg = _checked("cfg", cfg, _messl_config)
    grid = cfg.delay_grid
    phi, pairs, omega, correlation = _pair_phases(specs, cfg.reference_channel, grid)
    n_pairs, n_freq, n_frames = phi.shape
    k_total = cfg.n_sources + (1 if cfg.use_garbage else 0)
    peaks = _top_peaks(correlation, grid, cfg.n_sources, min_sep=max(cfg.grid_step, 1.0))
    splits = _delay_splits(phi, grid, omega)
    delays = np.tile(peaks[:, None], (1, n_pairs))
    mean = np.zeros((cfg.n_sources, n_freq))
    var = np.ones((cfg.n_sources, n_freq))
    log_priors = np.full(k_total, -np.log(k_total))

    # The wrapped residuals, (sources, pairs, F, T), kept across iterations:
    # a (source, pair) slice is wrapped again only when its delay moves. A
    # channel lagging the reference by tau samples shows the phase
    # difference -omega * tau, so the residual adds the prediction back.
    resid = _wrap(phi + (delays[:, :, None] * omega)[..., None])
    del phi  # the sorted phases hold the same values
    sorted_phi, order = splits[:2]
    flat_resid = resid.reshape(cfg.n_sources, n_pairs, -1)
    # Every iteration reuses these buffers: the posteriors (the last E step's
    # are the masks), the M step's delay-search weights (also the pair sum's
    # scratch), the scoring's, and the pair-summed squared deviations that
    # each M step forms for the next E step.
    log_post = np.empty((k_total, n_freq, n_frames))
    weight = np.empty((cfg.n_sources, n_freq, n_frames))
    work = _score_work(cfg.n_sources, n_freq, n_frames)
    sq_sum = _pair_sum_sq(resid, mean, np.empty_like(weight), weight)

    trace, converged = [], False
    for iteration in range(cfg.n_iterations + 1):
        log_norm = -0.5 * np.log(2.0 * np.pi * var)
        source_post = log_post[: cfg.n_sources]
        np.divide(sq_sum, (2.0 * var)[:, :, None], out=source_post)
        np.subtract((n_pairs * log_norm)[:, :, None], source_post, out=source_post)
        if cfg.use_garbage:
            log_post[-1] = n_pairs * _LOG_UNIFORM
        log_post += log_priors[:, None, None]
        trace.append(float(np.sum(_normalize(log_post))))
        gamma = log_post
        if iteration == cfg.n_iterations:
            break
        if iteration >= 1:
            prev = trace[-2]
            if abs(trace[-1] - prev) <= cfg.convergence_tol * (abs(prev) + 1.0):
                converged = True
                trace.append(trace[-1])
                break

        # M step, coordinate ascent: delays first (old mean/var), then the
        # residual Gaussians in closed form, then the priors. Delays start
        # on the grid and are searched over it; the first maximum wins.
        resp = gamma[: cfg.n_sources]
        np.divide(resp, (2.0 * var)[:, :, None], out=weight)
        score = _delay_scores(splits, weight, mean, work)
        searched = grid[np.argmax(score, axis=2)].T
        for k, p in zip(*np.nonzero(searched != delays)):
            delays[k, p] = searched[k, p]
            # Wrapped in sorted order and put back through the permutation.
            moved = _wrap(sorted_phi[p] + (delays[k, p] * omega)[:, None])
            flat_resid[k, p, order[p].ravel()] = moved.ravel()

        denom = n_pairs * resp.sum(axis=2)    # (n_sources, n_freq)
        ok = denom > 1e-12
        mean[ok] = np.einsum("kpft,kft->kf", resid, resp)[ok] / denom[ok]
        _pair_sum_sq(resid, mean, sq_sum, weight)
        num_var = np.einsum("kft,kft->kf", sq_sum, resp)
        var[ok] = np.maximum(num_var[ok] / denom[ok], VAR_FLOOR)

        priors = gamma.reshape(k_total, -1).mean(axis=1)
        log_priors = np.log(np.maximum(priors, _PRIOR_FLOOR))

    if cfg.target_source is not None:
        target_index = cfg.target_source
    else:
        target_index = int(np.argmin(np.mean(np.abs(delays), axis=1)))

    params = MesslParams(delays=delays, residual_mean=mean, residual_var=var,
                         priors=np.exp(log_priors))
    return MesslResult(masks=tuple(MaskGrid(values=g) for g in gamma), params=params,
                       loglik_trace=np.asarray(trace), target_index=target_index,
                       pair_channels=pairs, converged=converged)


def binarize(mask: MaskGrid, threshold: float = 0.5) -> MaskGrid:
    """Hard 0/1 mask: one where the value strictly exceeds the finite
    threshold."""
    mask = _checked("mask", mask, _mask_grid)
    return MaskGrid(values=mask.values > _checked("threshold", threshold, _finite))
