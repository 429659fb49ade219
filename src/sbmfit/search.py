"""Maximizers of the two objectives over the constrained label space.

Greedy search runs on one move kernel, _GreedyState: integer block
counters, the current objective term of every block pair and, per node,
the count of its neighbours in each community. It keeps no running total;
a search sums the cached terms when it needs the objective. A greedy node
visit is one best_move call that scores every target community: the
node's old block after the removal is one new term for all targets, and
each target adds O(k) more, so a visit costs O(k^2) terms; an applied
move costs O(degree + k) to update the tables. The x*log(x) and log-gamma
values behind the terms are memoized per integer argument for the life of
the process, so memory grows with the distinct counts a search visits,
not with n^2. Each objective has one block term function, _f_ml or
_f_icl, and it alone fills the memos; best_move reads them inline and
calls it on a miss.

Greedy search is best-improvement single-node relabeling with random
restarts, for experiment scale; a large enough fit shares its restarts
with forked workers (see _parallel_restarts).

Exact search, for toy scale, needs no move kernel: it scores the
canonical labelings in lexicographic order, a bounded chunk of them per
numpy pass, with the same block terms computed by array ufuncs. It
re-scores only the labelings that come near the largest potential seen so
far with the vectorized objective of sbmfit.modularity, whose values
alone decide the winner; the winner's recount is its result.
"""

import fcntl
import math
import os
import pickle
import select
import signal
import threading
import traceback
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import InfeasibleError, ParameterError, SearchSpaceError
from .graphs import Labeling, _alpha_fraction, block_counters, meets_min_size, min_feasible_size
from .modularity import (
    LOG_BETA_HALF,
    OBJECTIVES,
    icl_from_counters,
    ml_from_counters,
)
from .sampling import derive_seed

_EXACT_GUARD = 2 * 10**7
# Moves must beat this unnormalized improvement; filters float noise while
# staying far below any real single-node objective change.
_MOVE_EPS = 1e-10
_INIT_ATTEMPTS = 1000
# Greedy fits with n * restarts above this share their restarts with forked
# workers. A fork round trip costs 3-7 ms in a process with numpy and scipy
# loaded; on two CPUs the fork loses below about n * restarts = 1000 and
# wins above it (n=50: 10.3 ms serial against 12.1 ms forked at 20
# restarts; n=200: 26.0 against 19.1 ms at 5 restarts).
_FORK_MIN_WORK = 1000
# Exact search re-scores a labeling whose potential, the sum of its block
# terms, is within this relative distance of the largest one seen so far,
# or above it. A labeling with the best vectorized value has at least every
# other potential in exact arithmetic; the two sums round differently by
# about 1e-16 of the largest block term. A nonzero potential is at least
# log(2) in size, so the window is far wider than the rounding; no
# potential exceeds zero, since every block term is <= 0.
_RESCORE_TOL = 1e-9
# Exact search scores the labelings in chunks of at most this many elements,
# counting n labels, m edge pair codes and k^2 block counts per labeling, so
# no chunk array exceeds 256 KB unless a single labeling does.
_EXACT_CHUNK = 1 << 15


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the greedy maximizer; exact search reads only objective and alpha."""

    objective: str = "ml"
    alpha: float = 0.05
    restarts: int = 10
    max_sweeps: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        _alpha_fraction(self.alpha)  # ValueError outside (0, 1)
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one search: canonical labeling plus bookkeeping.

    converged is False when the winning greedy restart stopped at
    max_sweeps while its last sweep still moved a node, so its labeling
    need not be a local optimum. Exhaustive search always converges.
    """

    labeling: Labeling
    objective_value: float
    objective: str
    sweeps_used: int
    restart_index: int
    feasible: bool
    converged: bool


# Memos of x*log(x), gammaln(x + 1/2) and gammaln(x + 1) at the integer
# arguments searches have visited. They are shared by every fit in the
# process, so a sweep fills them once; each value is bit-identical to the
# scipy ufunc (xlogy(x, x), gammaln) over an array at float(x). A forked
# restart worker starts from the parent's memos and its own fills die with it.
_XLOGX = {}
_LGAMMA_HALF = {}
_LGAMMA_INT = {}


def _xlogx(x):
    # Scalar xlogy(x, x) without the ufunc dispatch: the same log and product.
    return x * math.log(x) if x else 0.0


# The block terms subscript the memos and fill the missing entries on a
# KeyError. Membership tests on every call instead made greedy fits at
# n=200 about 5% slower on 2 vCPUs, and a dict subclass with __missing__
# 10-20% slower: subscripting one loses the interpreter's fast path, in
# best_move too.
def _f_ml(o, m):
    """Block term of the plug-in likelihood, m * tau(o / m); 0 for m = 0."""
    if m <= 0:
        return 0.0
    t = _XLOGX
    try:
        return t[o] + t[m - o] - t[m]
    except KeyError:
        for x in (o, m - o, m):
            if x not in t:
                t[x] = _xlogx(float(x))
    return t[o] + t[m - o] - t[m]


def _f_icl(o, m):
    """Block term of the integrated likelihood, log B(o+1/2, m-o+1/2) / B(1/2, 1/2)."""
    if m <= 0:
        return 0.0
    gh, gi = _LGAMMA_HALF, _LGAMMA_INT
    try:
        return gh[o] + gh[m - o] - gi[m] - LOG_BETA_HALF
    except KeyError:
        for x in (o, m - o):
            if x not in gh:
                gh[x] = float(gammaln(float(x) + 0.5))
        if m not in gi:
            gi[m] = float(gammaln(float(m) + 1.0))
    return gh[o] + gh[m - o] - gi[m] - LOG_BETA_HALF


class _GreedyState:
    """Mutable labeling with integer block counters and cached block terms.

    The potential is the unnormalized objective: sum over ordered blocks of
    x*log(x) terms for ml, sum over unordered halved blocks of log-Beta
    terms for icl. Normalization does not affect the argmax. The state keeps
    no running sum of it: the current term of every block pair is cached in
    F, and best_move evaluates only the terms of the blocks after a move,
    and shares the removal term of the node's own block among its targets.
    The labels z are a plain list, and table[i][c] counts the neighbours of
    node i in community c, an n x k list of lists built once from the edge
    endpoints. apply_move refreshes rows and columns a and b of F and the
    table rows of the moved node's neighbours. Callers read the rows of
    table and must not mutate them; row i stays valid across apply_move of
    node i itself, which changes only the rows of i's neighbours.
    """

    def __init__(self, g, k, labels, objective):
        self.g = g
        self.n = g.n
        self.k = k
        self.objective = objective
        self._indptr = g.indptr.tolist()
        z = np.asarray(labels, dtype=np.int64)
        if z.shape != (self.n,) or z.min() < 0 or z.max() >= k:
            raise ValueError(f"labels must be {self.n} values in [0, {k})")
        src = np.repeat(np.arange(self.n, dtype=np.int64), g.degrees())
        table = np.bincount(src * k + z[g.indices], minlength=self.n * k).reshape(self.n, k)
        # o[a][b] sums the table rows of the nodes labelled a.
        o = np.zeros((k, k), dtype=np.int64)
        np.add.at(o, z, table)
        self.z = z.tolist()
        self.sizes = np.bincount(z, minlength=k).tolist()
        self.o = o.tolist()
        self.table = table.tolist()
        self._f = _f_ml if objective == "ml" else _f_icl
        # The third communities c of a move a -> b, in ascending order.
        self._others = [[[c for c in range(k) if c != a and c != b] for b in range(k)]
                        for a in range(k)]
        self.F = self.block_terms()

    def _term(self, a, b):
        s, o = self.sizes, self.o
        if a != b:
            return self._f(o[a][b], s[a] * s[b])
        if self.objective == "ml":
            return self._f(o[a][a], s[a] * (s[a] - 1))
        return self._f(o[a][a] // 2, s[a] * (s[a] - 1) // 2)

    def block_terms(self):
        """k x k block terms recomputed from the counters."""
        return [[self._term(a, b) for b in range(self.k)] for a in range(self.k)]

    def full_potential(self):
        """Potential recomputed from the counters, not from the cached F."""
        # ml sums all ordered blocks, icl the upper triangle, row by row.
        t, k, icl = self.block_terms(), self.k, self.objective != "ml"
        total = 0.0
        for a in range(k):
            for b in range(a if icl else 0, k):
                total += t[a][b]
        return total

    def best_move(self, a, d, targets):
        """Largest potential change over relabeling one node from a to each
        of targets, and the first target that reaches it; (-inf, -1) when
        targets is empty.

        d is the node's row of neighbour counts. The terms of the blocks
        after the move are read from the memos inline, and a miss calls
        _f_ml or _f_icl, which fill them; the term of block (a, a) after
        the removal is the same for every target and is computed once.
        Each delta is summed in a fixed order, so equal counters always
        give the same float. A block with no pairs (m = 0) needs no test:
        its subscripted term is exactly +0.0, as _f_ml and _f_icl return,
        because x*log(x) is 0 at 0 and 2 * gammaln(1/2) - gammaln(1)
        equals LOG_BETA_HALF.
        """
        s, o, F = self.sizes, self.o, self.F
        others = self._others[a]
        sa1 = s[a] - 1
        da = d[a]
        oa, Fa = o[a], F[a]
        best, best_b = -math.inf, -1
        if self.objective == "ml":
            t = _XLOGX
            x, m = oa[a] - 2 * da, sa1 * (sa1 - 1)
            try:
                f = t[x] + t[m - x] - t[m]
            except KeyError:
                f = _f_ml(x, m)
            removal = f - Fa[a]
            for b in targets:
                sb1, db = s[b] + 1, d[b]
                ob, Fb = o[b], F[b]
                x, m = ob[b] + 2 * db, sb1 * (sb1 - 1)
                try:
                    f = t[x] + t[m - x] - t[m]
                except KeyError:
                    f = _f_ml(x, m)
                delta = removal + f - Fb[b]
                x, m = oa[b] + da - db, sa1 * sb1
                try:
                    f = t[x] + t[m - x] - t[m]
                except KeyError:
                    f = _f_ml(x, m)
                delta += 2.0 * (f - Fa[b])
                for c in others[b]:
                    sc, dc = s[c], d[c]
                    x, m = oa[c] - dc, sa1 * sc
                    try:
                        f = t[x] + t[m - x] - t[m]
                    except KeyError:
                        f = _f_ml(x, m)
                    x, m = ob[c] + dc, sb1 * sc
                    try:
                        g = t[x] + t[m - x] - t[m]
                    except KeyError:
                        g = _f_ml(x, m)
                    delta += 2.0 * (f - Fa[c] + g - Fb[c])
                if delta > best:
                    best, best_b = delta, b
        else:
            gh, gi, beta = _LGAMMA_HALF, _LGAMMA_INT, LOG_BETA_HALF
            x, m = oa[a] // 2 - da, sa1 * (sa1 - 1) // 2
            try:
                f = gh[x] + gh[m - x] - gi[m] - beta
            except KeyError:
                f = _f_icl(x, m)
            removal = f - Fa[a]
            for b in targets:
                sb1, db = s[b] + 1, d[b]
                ob, Fb = o[b], F[b]
                x, m = ob[b] // 2 + db, sb1 * (sb1 - 1) // 2
                try:
                    f = gh[x] + gh[m - x] - gi[m] - beta
                except KeyError:
                    f = _f_icl(x, m)
                delta = removal + f - Fb[b]
                x, m = oa[b] + da - db, sa1 * sb1
                try:
                    f = gh[x] + gh[m - x] - gi[m] - beta
                except KeyError:
                    f = _f_icl(x, m)
                # Not delta += f - Fa[b]: the sum is left to right.
                delta = delta + f - Fa[b]
                for c in others[b]:
                    sc, dc = s[c], d[c]
                    x, m = oa[c] - dc, sa1 * sc
                    try:
                        f = gh[x] + gh[m - x] - gi[m] - beta
                    except KeyError:
                        f = _f_icl(x, m)
                    x, m = ob[c] + dc, sb1 * sc
                    try:
                        g = gh[x] + gh[m - x] - gi[m] - beta
                    except KeyError:
                        g = _f_icl(x, m)
                    delta += f - Fa[c] + g - Fb[c]
                if delta > best:
                    best, best_b = delta, b
        return best, best_b

    def apply_move(self, i, b, d):
        a = self.z[i]
        o, F = self.o, self.F
        for c in range(self.k):
            dc = d[c]
            if dc:
                o[a][c] -= dc
                o[c][a] -= dc
                o[b][c] += dc
                o[c][b] += dc
        self.sizes[a] -= 1
        self.sizes[b] += 1
        self.z[i] = b
        term = self._term
        # Block (b, a) is block (a, b): 2k - 1 distinct terms change.
        for c in range(self.k):
            F[a][c] = F[c][a] = term(a, c)
            if c != a:
                F[b][c] = F[c][b] = term(b, c)
        table, indptr = self.table, self._indptr
        for j in self.g.indices[indptr[i]:indptr[i + 1]].tolist():
            row = table[j]
            row[a] -= 1
            row[b] += 1


def _random_feasible_labels(rng, n, k, min_size):
    for _ in range(_INIT_ATTEMPTS):
        labels = rng.integers(0, k, size=n)
        if np.bincount(labels, minlength=k).min() >= min_size:
            return labels.astype(np.int64)
    # Stratified fallback: plant min_size nodes per community, rest uniform.
    labels = rng.integers(0, k, size=n).astype(np.int64)
    perm = rng.permutation(n)
    for j in range(k * min_size):
        labels[perm[j]] = j % k
    return labels


def _scorer(objective):
    # Looked up at call time: callers may patch the module-level scorers.
    return ml_from_counters if objective == "ml" else icl_from_counters


def _min_size(n, k, cfg):
    """Smallest feasible community size.

    ParameterError when k < 1; InfeasibleError when k of them exceed n,
    which holds whenever alpha * k > 1.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    min_size = min_feasible_size(n, cfg.alpha)
    if k * min_size > n:
        raise InfeasibleError(
            f"alpha={cfg.alpha} needs {k * min_size} nodes but the graph has {n}"
        )
    return min_size


def _finalize(g, labels, k, cfg, sweeps, restart_index, converged):
    lab = Labeling(labels, k).canonical()
    return FitResult(
        labeling=lab,
        objective_value=_scorer(cfg.objective)(block_counters(g, lab)),
        objective=cfg.objective,
        sweeps_used=sweeps,
        restart_index=restart_index,
        feasible=meets_min_size(lab, cfg.alpha),
        converged=converged,
    )


def _run_restart(g, k, cfg, min_size, restart):
    """One greedy restart, seeded by its index alone.

    Returns (full potential, labels, sweeps, restart, converged), so any
    process that runs restart r returns the same tuple.
    """
    rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, restart)))
    labels = _random_feasible_labels(rng, g.n, k, min_size)
    state = _GreedyState(g, k, labels, cfg.objective)
    # Plain-list views of the state: a visit touches no numpy scalar.
    z, sizes, table = state.z, state.sizes, state.table
    best_move, apply_move = state.best_move, state.apply_move
    targets = [[b for b in range(k) if b != a] for a in range(k)]
    sweeps = 0
    while sweeps < cfg.max_sweeps:
        improved = False
        for i in rng.permutation(g.n).tolist():
            a = z[i]
            if sizes[a] - 1 < min_size:
                continue
            d = table[i]
            delta, b = best_move(a, d, targets[a])
            if delta > _MOVE_EPS:
                apply_move(i, b, d)
                improved = True
        sweeps += 1
        if not improved:
            break
    return state.full_potential(), z, sweeps, restart, not improved


def _restart_workers(n, restarts):
    """Processes to share a fit's restarts: this one plus forked children.

    A fit runs in-process unless it has at least two restarts, n * restarts
    exceeds _FORK_MIN_WORK, the affinity mask holds at least two CPUs, no
    other thread runs, since a forked child copies only the forking thread,
    and the platform has os.memfd_create for the restart counter.
    """
    if (restarts < 2 or n * restarts <= _FORK_MIN_WORK or threading.active_count() > 1
            or not hasattr(os, "sched_getaffinity") or not hasattr(os, "memfd_create")):
        return 1
    return min(len(os.sched_getaffinity(0)), restarts)


def _forked_worker(run, result_r, result_w):
    """Body of a forked child: run, send the pickled outcome, exit.

    The outcome is (True, results) or (False, (exception, traceback text)).

    SIGINT stays blocked, as the fork left it: Ctrl-C reaches the whole
    process group, and the parent alone handles it, by killing its children.
    """
    status = 1
    try:
        os.close(result_r)
        try:
            outcome = (True, run())
        except BaseException as exc:
            text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
            outcome = (False, (exc, text))
        try:
            data = pickle.dumps(outcome)
            if not outcome[0]:
                pickle.loads(data)
        except Exception:
            exc, text = outcome[1]
            data = pickle.dumps((False, (RuntimeError(repr(exc)), text)))
        with os.fdopen(result_w, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _parallel_restarts(g, k, cfg, min_size, workers):
    """Every restart's result, from this process and workers - 1 forked children.

    The workers claim restart indices one at a time until none is left,
    which evens out restarts of unequal length. The next index is one
    8-byte record in an unnamed in-memory file made for this fit; a claim
    takes a POSIX record lock on the file, reads the index, writes back the
    index plus one and unlocks. The kernel drops the lock of a process that
    dies, so no claimer ever waits on a dead one.
    Each child pickles its results into its own pipe and leaves by
    os._exit; a child that dies sends nothing, which raises RuntimeError.
    Results are read from whichever child pipe is ready, so a dead child is
    noticed while another one still runs. If anything raises here, a
    child's exception included, the children still running are killed and
    every child is reaped before the exception propagates.

    Every restart draws from its own seed, and the results come back sorted
    by restart index, the order of the serial loop, so the fit does not
    depend on the worker count.
    """
    counter = os.memfd_create("sbmfit-restarts")
    os.pwrite(counter, (0).to_bytes(8, "little"), 0)

    def claimed():
        while True:
            fcntl.lockf(counter, fcntl.LOCK_EX)
            try:
                restart = int.from_bytes(os.pread(counter, 8, 0), "little")
                os.pwrite(counter, (restart + 1).to_bytes(8, "little"), 0)
            finally:
                fcntl.lockf(counter, fcntl.LOCK_UN)
            if restart >= cfg.restarts:
                return
            yield restart

    def run():
        return [_run_restart(g, k, cfg, min_size, r) for r in claimed()]

    children = []  # (pid, read end of its result pipe), not yet reaped
    try:
        for _ in range(workers - 1):
            result_r, result_w = os.pipe()
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _forked_worker(run, result_r, result_w)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(result_w)
            children.append((pid, result_r))
        results = run()
        received = {result_r: [] for _, result_r in children}
        while children:
            ready = select.select([result_r for _, result_r in children], [], [])[0]
            for pid, result_r in [child for child in children if child[1] in ready]:
                chunk = os.read(result_r, 1 << 16)
                if chunk:
                    received[result_r].append(chunk)
                    continue
                _, status = os.waitpid(pid, 0)
                children.remove((pid, result_r))
                os.close(result_r)
                data = b"".join(received.pop(result_r))
                if not data:
                    raise RuntimeError(f"restart worker {pid} sent no result "
                                       f"(wait status {status})")
                ok, payload = pickle.loads(data)
                if not ok:
                    exc, text = payload
                    raise exc from RuntimeError(f"in restart worker {pid}:\n{text}")
                results.extend(payload)
    finally:
        for pid, result_r in children:
            os.close(result_r)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        os.close(counter)
    results.sort(key=lambda result: result[3])
    return results


def greedy_argmax(g, k, cfg):
    """Best-improvement single-node relabeling with random restarts.

    Each restart starts from a random feasible labeling and repeatedly
    applies, per visited node, the relabel that most increases the
    objective among moves that stay feasible, until a full sweep makes no
    move or max_sweeps is reached. The best restart wins; ties keep the
    earlier restart. Output labeling is canonical.

    The restarts of a large enough fit run on every CPU of the affinity
    mask (see _restart_workers and _parallel_restarts).
    """
    min_size = _min_size(g.n, k, cfg)
    workers = _restart_workers(g.n, cfg.restarts)
    if workers > 1:
        results = _parallel_restarts(g, k, cfg, min_size, workers)
    else:
        results = (_run_restart(g, k, cfg, min_size, r) for r in range(cfg.restarts))
    # max keeps the first of equal potentials: a tie keeps the earlier restart.
    _, labels, sweeps, restart, converged = max(results, key=lambda result: result[0])
    return _finalize(g, labels, k, cfg, sweeps, restart, converged)


def _value_counts(x, values):
    """Per row of x, how many entries equal each of 0 .. values - 1."""
    return np.stack([np.count_nonzero(x == v, axis=1) for v in range(values)], axis=1)


def _canonical_labelings(n, k, min_size, rows):
    """Feasible labelings of n nodes in first-occurrence canonical form.

    Yields (z, sizes) chunks in lexicographic order: z holds one labeling
    per int8 row, at most `rows` of them, and sizes their community sizes.
    The candidates are the base-k numerals 0 .. k^(n-1) - 1 written with n
    digits, most significant first, so the first digit is 0 and numeric
    order is lexicographic order. A numeral is canonical when each digit is
    at most one above the largest digit before it, and feasible when each
    of the k labels holds at least min_size nodes.
    """
    place = k ** np.arange(n - 1, -1, -1, dtype=np.int32)
    count = k ** (n - 1)
    for start in range(0, count, rows):
        codes = np.arange(start, min(start + rows, count), dtype=np.int32)
        z = (codes[:, None] // place % k).astype(np.int8)
        top = np.maximum.accumulate(z, axis=1)
        z = z[(z[:, 1:] <= top[:, :-1] + 1).all(axis=1)]
        sizes = _value_counts(z, k)
        feasible = sizes.min(axis=1) >= min_size
        yield z[feasible], sizes[feasible]


def _potentials(z, sizes, src, dst, objective):
    """Potential of each labeling row of z, given its community sizes.

    The block counts of a row are the counts of its label pairs
    (z[i], z[j]) over the edges i < j listed by src and dst: block a <= b
    holds the pairs (a, b) and (b, a), so its endpoint count o_ab counts a
    within-block edge twice, as block_counters does. The potential sums
    the block terms of _f_ml or _f_icl over the blocks a <= b, an ml term
    twice off the diagonal, computed by the ufuncs behind their memos:
    xlogy(x, x) for ml and gammaln for icl. The pair codes z[i] * k + z[j]
    fit in int8: a k >= 2 that passes the feasibility check and the guard
    has k <= n and k^n <= 2 * 10^7, so k <= 8. In-place updates keep few
    chunk-sized arrays alive at once.
    """
    k = sizes.shape[1]
    a, b = np.triu_indices(k)
    same = a == b
    pairs = _value_counts(z[:, src] * k + z[:, dst], k * k)
    o = pairs[:, a * k + b] + pairs[:, b * k + a]
    m = sizes[:, a] * (sizes[:, b] - same)
    if objective == "ml":
        terms = xlogy(o, o)
        terms -= xlogy(m, m)
        np.subtract(m, o, out=o)
        terms += xlogy(o, o)
        terms *= 2.0 - same
    else:
        # The integrated likelihood halves the diagonal counters.
        o //= 1 + same
        m //= 1 + same
        terms = gammaln(o + 0.5)
        terms -= gammaln(m + 1.0)
        np.subtract(m, o, out=o)
        terms += gammaln(o + 0.5)
        terms -= LOG_BETA_HALF
    return terms.sum(axis=1)


def exact_argmax(g, k, cfg):
    """Global maximizer by exhaustive enumeration of canonical labelings.

    Refuses when k^n exceeds the enumeration guard. The labelings in
    first-occurrence canonical form are scored in lexicographic order, one
    chunk at a time, by numpy (see _canonical_labelings and _potentials).
    A chunk holds at most _EXACT_CHUNK // (n + m + k^2) labelings, so
    memory stays bounded however large the label space.

    The re-scoring floor starts each chunk at least a relative _RESCORE_TOL
    below the chunk's largest potential and only ever rises: a labeling
    that is re-scored and beats the best value so far lifts it to the same
    distance below its own potential. Only labelings at or above the floor
    are re-scored from block_counters by the vectorized objective, and only
    those values are compared; ties keep the lexicographically smallest
    canonical labeling. The winner with the best value lies above every
    floor, and at n = 10 it is usually the only labeling re-scored. Every
    enumerated labeling is canonical and feasible, so the winner's recount
    is the result as it stands.
    """
    n = g.n
    min_size = _min_size(n, k, cfg)
    space = k**n
    if space > _EXACT_GUARD:
        raise SearchSpaceError(
            f"label space k^n = {space} exceeds the enumeration guard {_EXACT_GUARD}"
        )
    score = _scorer(cfg.objective)
    src = np.repeat(np.arange(n), g.degrees())
    once = src < g.indices
    src, dst = src[once], g.indices[once]
    rows = max(1, _EXACT_CHUNK // (n + src.size + k * k))
    best_value = best = None
    floor = -math.inf
    for z, sizes in _canonical_labelings(n, k, min_size, rows):
        if not len(z):
            continue
        potentials = _potentials(z, sizes, src, dst, cfg.objective)
        top = float(potentials.max())
        floor = max(floor, top - _RESCORE_TOL * abs(top))
        near = np.flatnonzero(potentials >= floor)
        j = 0
        while j < len(near):
            r = near[j]
            j += 1
            lab = Labeling(z[r], k)
            value = score(block_counters(g, lab))
            if best is None or value > best_value:
                best_value, best = value, lab
                potential = float(potentials[r])
                floor = max(floor, potential - _RESCORE_TOL * abs(potential))
                near, j = r + 1 + np.flatnonzero(potentials[r + 1:] >= floor), 0
    if best is None:
        raise InfeasibleError(
            f"no labeling of {n} nodes into {k} communities meets alpha={cfg.alpha}"
        )
    return FitResult(labeling=best, objective_value=best_value, objective=cfg.objective,
                     sweeps_used=0, restart_index=0, feasible=True, converged=True)
