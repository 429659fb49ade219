"""Maximizers of the two objectives over the constrained label space.

The two objectives differ only in the term each block pair adds, and each
is one _BlockTerm record of that term, defined with its memos in
sbmfit.modularity; both searches read the records. Greedy search runs on
one move kernel, _GreedyState: integer block counters, the current
objective term of every block pair and, per node, the count of its
neighbours in each community. It keeps no running total; a search sums
the cached terms when it needs the objective. A greedy node visit is one
best_move call that scores every target community: the node's old block
after the removal is one new term for all targets, and each target adds
O(k) more, so a visit costs O(k^2) terms; an applied move costs
O(degree + k) to update the tables. best_move reads the records' memos
inline and calls modularity._fill on a miss.

Greedy search is best-improvement single-node relabeling with random
restarts, for experiment scale. The restarts of a fit are one _claim_map
over their indices: a plain loop, or, for a large enough fit, a pool of
forked workers that claim the indices one at a time. A fit builds what its
restarts read and never write once, before any fork, as a _GreedyContext
of lists no longer than n + 1; each restart builds only its own labels,
counters and terms. A visit whose node has the label and neighbour
counts of a node already scored without a move since the last applied
move is skipped: best_move reads nothing else, so it would not move
either (see _run_restart).

Exact search, for toy scale, needs no move kernel: it scores the
canonical labelings in lexicographic order, a bounded chunk of them per
numpy pass, with the public objective itself. Each row gathers the
public block terms of sbmfit.modularity from one table of them per
objective and n (see _term_table), and sorts and sums them as the public
scorers do, so its value is the scorer's bit for bit (see
_objective_values); np.argmax picks a chunk's winner, and a later chunk
wins only with a larger value. Both the table and an enumeration that
fits one chunk depend only on the shape of the search, and are kept
read-only per shape for the life of the process (see _enumeration). At
k = 1 the one labeling is scored alone, with no table.
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

from .errors import InfeasibleError, ParameterError, SearchSpaceError
from .graphs import Labeling, _alpha_fraction, block_counters, meets_min_size, min_feasible_size
from .modularity import (_BLOCK_TERMS, OBJECTIVES, _f, _fill, _public_blocks, icl_from_counters,
                         ml_from_counters)
from .sampling import derive_seed

_EXACT_GUARD = 2 * 10**7
# Moves must beat this unnormalized improvement. It is a fixed threshold,
# not a bound on the kernel's rounding, which grows with n: against a
# cancellation-free recomputation, deltas were off by up to 3.1e-8 at
# n = 3000 and 7.9e-5 at n = 10^5, and a real gain was as small as 7.9e-6.
# So at large n it neither filters all float noise nor stays below every
# real single-node change.
_MOVE_EPS = 1e-10
_INIT_ATTEMPTS = 1000
# Greedy fits with n * restarts above this share their restarts with forked
# workers. On two CPUs the fork lost below about n * restarts = 1000 and
# won above it (n=50: 10.3 ms serial against 12.1 ms forked at 20 restarts;
# n=200: 26.0 against 19.1 ms at 5 restarts), measured when a fit process
# loaded scipy.special. It no longer does, and a bare fork round trip fell
# from 3.5-3.7 to 1.6-2.6 ms; at n * restarts = 1000 the forked and serial
# fits still differ by less than the run-to-run noise.
_FORK_MIN_WORK = 1000
# Exact search scores the labelings in chunks of at most this many elements,
# counting n labels, m edge pair codes and k^2 block counts or terms per
# labeling, so no chunk array exceeds 256 KB unless a single labeling does.
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


@dataclass(frozen=True)
class _GreedyContext:
    """What every restart of one greedy fit reads and none writes.

    greedy_argmax makes one before any fork, so forked workers inherit it;
    it depends only on the graph, k and the objective. Every field is a
    plain list no longer than n + 1: no list grows with the edge count.
    """

    indptr: list  # the graph's indptr, as ints
    pairs: list  # pairs[c]: node pairs c(c - 1) / h of a diagonal block of c nodes
    targets: list  # targets[a]: the communities b != a, ascending
    others: list  # others[a][b]: the third communities of a move a -> b, ascending


def _greedy_context(g, k, objective):
    h = _BLOCK_TERMS[objective].h
    return _GreedyContext(
        indptr=g.indptr.tolist(),
        pairs=[c * (c - 1) // h for c in range(g.n + 1)],
        targets=[[b for b in range(k) if b != a] for a in range(k)],
        others=[[[c for c in range(k) if c != a and c != b] for b in range(k)]
                for a in range(k)],
    )


class _GreedyState:
    """Mutable labeling with integer block counters and cached block terms.

    The potential is the unnormalized objective, the sum of the block terms
    of the objective's _BlockTerm record; normalization does not affect the
    argmax. The state keeps no running sum of it: the current term of every
    block pair is cached in F, and best_move evaluates only the terms of the
    blocks after a move, and shares the removal term of the node's own
    block among its targets.
    The labels z are a plain list, and table[i][c] counts the neighbours of
    node i in community c, an n x k list of lists built once from the edge
    endpoints; the block counters o are one bincount of the endpoints'
    label pairs. apply_move refreshes rows and columns a and b of F and the
    table rows of the moved node's neighbours. Callers read the rows of
    table and must not mutate them; row i stays valid across apply_move of
    node i itself, which changes only the rows of i's neighbours.
    ctx is the fit's _GreedyContext for g, k and objective; a state made
    without one builds its own.
    """

    def __init__(self, g, k, labels, objective, ctx=None):
        if ctx is None:
            ctx = _greedy_context(g, k, objective)
        self.g = g
        self.n = n = g.n
        self.k = k
        self._t = t = _BLOCK_TERMS[objective]
        self._indptr = ctx.indptr
        self._others = ctx.others
        z = np.asarray(labels, dtype=np.int64)
        if z.shape != (n,) or z.min() < 0 or z.max() >= k:
            raise ValueError(f"labels must be {n} values in [0, {k})")
        degrees = g.degrees()
        dst = z[g.indices]
        table = np.bincount(np.repeat(np.arange(n) * k, degrees) + dst, minlength=n * k)
        # o[a][b] counts the endpoints (i, j) with z[i] = a and z[j] = b.
        o = np.bincount(np.repeat(z * k, degrees) + dst, minlength=k * k)
        self.z = z.tolist()
        self.sizes = np.bincount(z, minlength=k).tolist()
        self.o = o.reshape(k, k).tolist()
        self.table = table.reshape(n, k).tolist()
        # What best_move reads of the record, as one tuple (apply_move
        # reads its pair counts too):
        # reading the fields one by one made greedy fits at n=200 about 5%
        # slower on 2 vCPUs.
        self._kernel = (t.A, t.B, t.beta, t.h, t.w, ctx.pairs)
        self.F = self.block_terms()

    def _term(self, a, b):
        s, o, t = self.sizes, self.o, self._t
        if a != b:
            return _f(t, o[a][b], s[a] * s[b])
        return _f(t, o[a][a] // t.h, s[a] * (s[a] - 1) // t.h)

    def block_terms(self):
        """k x k block terms recomputed from the counters."""
        return [[self._term(a, b) for b in range(self.k)] for a in range(self.k)]

    def full_potential(self):
        """Potential recomputed from the counters, not from the cached F."""
        return _summed(self.block_terms(), self.k, self._t.h)

    def potential(self):
        """Potential summed from the cached F, in full_potential's order: F
        equals block_terms() exactly, so the two are the same float."""
        return _summed(self.F, self.k, self._t.h)

    def best_move(self, a, d, targets):
        """Largest potential change over relabeling one node from a to each
        of targets, and the first target that reaches it; (-inf, -1) when
        targets is empty.

        d is the node's row of neighbour counts. The terms of the blocks
        after the move are read from the memos inline, and a miss calls
        _fill, which fills them; the term of block (a, a) after the removal
        is the same for every target and is computed once. Each delta is
        summed in a fixed order, so equal counters always give the same
        float. A block with no pairs (m = 0) needs no test: its subscripted
        term is exactly +0.0, as _f returns, because x*log(x) is 0 at 0 and
        lgam(1/2) + lgam(1/2) - lgam(1) is the float
        modularity.LOG_BETA_HALF (tests/test_cephes.py pins both).
        """
        s, o, F, t = self.sizes, self.o, self.F, self._t
        A, B, beta, h, w, pairs = self._kernel
        others = self._others[a]
        sa1 = s[a] - 1
        da = d[a]
        oa, Fa = o[a], F[a]
        best, best_b = -math.inf, -1
        x, m = (oa[a] - 2 * da) // h, pairs[sa1]
        try:
            f = A[x] + A[m - x] - B[m] - beta
        except KeyError:
            f = _fill(t, x, m)
        removal = f - Fa[a]
        for b in targets:
            sb1, db = s[b] + 1, d[b]
            ob, Fb = o[b], F[b]
            x, m = (ob[b] + 2 * db) // h, pairs[sb1]
            try:
                f = A[x] + A[m - x] - B[m] - beta
            except KeyError:
                f = _fill(t, x, m)
            delta = removal + f - Fb[b]
            x, m = oa[b] + da - db, sa1 * sb1
            try:
                f = A[x] + A[m - x] - B[m] - beta
            except KeyError:
                f = _fill(t, x, m)
            delta += w * (f - Fa[b])
            for c in others[b]:
                sc, dc = s[c], d[c]
                x, m = oa[c] - dc, sa1 * sc
                try:
                    f = A[x] + A[m - x] - B[m] - beta
                except KeyError:
                    f = _fill(t, x, m)
                x, m = ob[c] + dc, sb1 * sc
                try:
                    g = A[x] + A[m - x] - B[m] - beta
                except KeyError:
                    g = _fill(t, x, m)
                delta += w * (f - Fa[c] + g - Fb[c])
            if delta > best:
                best, best_b = delta, b
        return best, best_b

    def apply_move(self, i, b, d):
        a = self.z[i]
        s, o, F, t, k = self.sizes, self.o, self.F, self._t, self.k
        for c in range(k):
            dc = d[c]
            if dc:
                o[a][c] -= dc
                o[c][a] -= dc
                o[b][c] += dc
                o[c][b] += dc
        s[a] -= 1
        s[b] += 1
        self.z[i] = b
        # Block (b, a) is block (a, b): 2k - 1 distinct terms change.
        h, pairs = t.h, self._kernel[5]
        for r in (a, b):
            sr, orow, Fr = s[r], o[r], F[r]
            for c in range(k):
                if c == r:
                    Fr[r] = _f(t, orow[r] // h, pairs[sr])
                elif r == a or c != a:
                    Fr[c] = F[c][r] = _f(t, orow[c], sr * s[c])
        table, indptr = self.table, self._indptr
        for j in self.g.indices[indptr[i]:indptr[i + 1]].tolist():
            row = table[j]
            row[a] -= 1
            row[b] += 1


def _summed(terms, k, h):
    """Sum of a k x k block-term matrix, row by row: all ordered blocks for
    h = 1, the upper triangle for h = 2."""
    total = 0.0
    for a in range(k):
        for b in range(0 if h == 1 else a, k):
            total += terms[a][b]
    return total


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


def _run_restart(g, k, cfg, min_size, restart, ctx=None):
    """One greedy restart, seeded by its index alone.

    Returns (potential, labels, sweeps, restart, converged), so any
    process that runs restart r returns the same tuple; the potential is
    summed from the cached block terms, the float full_potential gives. ctx
    is the fit's _GreedyContext, which the restart only reads; without one
    it builds its own.

    best_move reads only the node's label, its row of neighbour counts and
    the block state, which changes only when a move is applied. So the
    loop keeps the signatures (label, counts) of the visits that
    best_move scored without a move since the last applied move, and skips
    a visit whose signature is among them: that visit would not move its
    node either, so the sweeps, moves and result are those of scoring
    every visit. Every applied move clears the set, which therefore holds
    at most one entry per distinct signature. Quiet sweeps are where it
    pays: over ten restarts of an n=3000, k=2 fit it cuts the best_move
    calls by about a third.
    """
    if ctx is None:
        ctx = _greedy_context(g, k, cfg.objective)
    rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, restart)))
    labels = _random_feasible_labels(rng, g.n, k, min_size)
    state = _GreedyState(g, k, labels, cfg.objective, ctx)
    # Plain-list views of the state: a visit touches no numpy scalar.
    z, sizes, table = state.z, state.sizes, state.table
    best_move, apply_move = state.best_move, state.apply_move
    targets = ctx.targets
    quiet = set()  # signatures scored without a move since the last move
    sweeps = 0
    while sweeps < cfg.max_sweeps:
        improved = False
        for i in rng.permutation(g.n).tolist():
            a = z[i]
            if sizes[a] - 1 < min_size:
                continue
            d = table[i]
            signature = (a, tuple(d))
            if signature in quiet:
                continue
            delta, b = best_move(a, d, targets[a])
            if delta > _MOVE_EPS:
                apply_move(i, b, d)
                quiet.clear()
                improved = True
            else:
                quiet.add(signature)
        sweeps += 1
        if not improved:
            break
    return state.potential(), z, sweeps, restart, not improved


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


def _claim_map(count, task, workers):
    """[task(0), ..., task(count - 1)], from this process and workers - 1 forked children.

    With workers < 2 it is a plain loop in this process, so an exception
    of a task propagates as it is. Otherwise the workers claim indices one
    at a time until none is left, which evens out tasks of unequal length.
    The next index is one 8-byte record in an unnamed in-memory file made
    for this call; a claim takes a POSIX record lock on the file, reads the
    index, writes back the index plus one and unlocks. The kernel drops the
    lock of a process that dies, so no claimer ever waits on a dead one.
    Each child pickles its (index, result) pairs into its own pipe and
    leaves by os._exit; a child that dies sends nothing, which raises
    RuntimeError. Results are read from whichever child pipe is ready, so a
    dead child is noticed while another one still runs. If anything raises
    here, a child's exception included, the children still running are
    killed and every child is reaped before the exception propagates.

    The results come back in index order whoever ran them, so a caller
    whose task(i) depends on i alone gets the same list from any worker
    count.
    """
    if workers < 2:
        return [task(i) for i in range(count)]
    counter = os.memfd_create("sbmfit-claims")
    os.pwrite(counter, (0).to_bytes(8, "little"), 0)

    def run():
        done = []
        while True:
            fcntl.lockf(counter, fcntl.LOCK_EX)
            try:
                i = int.from_bytes(os.pread(counter, 8, 0), "little")
                os.pwrite(counter, (i + 1).to_bytes(8, "little"), 0)
            finally:
                fcntl.lockf(counter, fcntl.LOCK_UN)
            if i >= count:
                return done
            done.append((i, task(i)))

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
        pairs = run()
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
                pairs.extend(payload)
    finally:
        for pid, result_r in children:
            os.close(result_r)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        os.close(counter)
    pairs.sort(key=lambda pair: pair[0])
    return [result for _, result in pairs]


def greedy_argmax(g, k, cfg):
    """Best-improvement single-node relabeling with random restarts.

    Each restart starts from a random feasible labeling and repeatedly
    applies, per visited node, the relabel that most increases the
    objective among moves that stay feasible, until a full sweep makes no
    move or max_sweeps is reached. The best restart wins; ties keep the
    earlier restart. Output labeling is canonical.

    The restarts are one _claim_map over the restart indices, which a
    large enough fit shares with forked workers on every CPU of the
    affinity mask (see _restart_workers); all of them read the fit's one
    _GreedyContext, made before any fork.
    """
    min_size = _min_size(g.n, k, cfg)
    ctx = _greedy_context(g, k, cfg.objective)
    results = _claim_map(cfg.restarts, lambda r: _run_restart(g, k, cfg, min_size, r, ctx),
                         _restart_workers(g.n, cfg.restarts))
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


# Exact search's arrays that depend on the shape of a search alone, kept
# read-only for the life of the process: the canonical enumeration per
# (n, k, min_size) when all of it fits one chunk, and the term table per
# (objective, n). Exact search builds them only for k >= 2, where the
# enumeration guard bounds n by 24 (see exact_argmax).
_ENUMERATIONS = {}
_TERM_TABLES = {}


def _frozen(*arrays):
    for x in arrays:
        x.setflags(write=False)
    return arrays


def _enumeration(n, k, min_size, rows):
    """The chunks of _canonical_labelings(n, k, min_size, rows); the one
    chunk of an enumeration that fits it is cached."""
    if k ** (n - 1) > rows:
        return _canonical_labelings(n, k, min_size, rows)
    key = n, k, min_size
    if key not in _ENUMERATIONS:
        _ENUMERATIONS[key] = [_frozen(*chunk) for chunk in _canonical_labelings(*key, rows)]
    return _ENUMERATIONS[key]


def _term_table(objective, n):
    """The objective's public block term at every o <= m <= n(n - 1) / h,
    the pair counts a block of n nodes can hold, at index m(m + 1) / 2 + o,
    and +inf at m = 0, so a block with no pairs sorts after every term;
    read-only and kept per (objective, n)."""
    key = objective, n
    if key not in _TERM_TABLES:
        t = _BLOCK_TERMS[objective]
        size = n * (n - 1) // t.h + 1
        table = np.full(size * (size + 1) // 2, math.inf)
        # One m at a time: no temporary grows with the table.
        for m in range(1, size):
            o = np.arange(m + 1)
            table[m * (m + 1) // 2 + o] = t.terms(o, np.full(m + 1, m))
        table.setflags(write=False)
        _TERM_TABLES[key] = table
    return _TERM_TABLES[key]


def _objective_values(z, sizes, src, dst, objective):
    """Public objective value of each labeling row of z, given its community
    sizes: bit for bit what the objective's scorer gives over the row's
    block_counters.

    The block counts of a row are the counts of its label pairs
    (z[i], z[j]) over the edges i < j listed by src and dst: block (a, b)
    holds the pairs (a, b) and (b, a), so its endpoint count counts a
    within-block edge twice, as block_counters does. A row gathers the
    terms of the public blocks (modularity._public_blocks) from the
    _term_table, sorts them, and sums those of the blocks that hold pairs,
    which sort first, with sum(axis=1) over a C-contiguous array. numpy
    then sums each row as it sums the 1-D sorted array of the scorer,
    pairwise from 8 terms up, in a chunk of any length; over a
    column-major array it would add one column at a time instead, and a
    gather from column-major index arrays is column-major. The sum is
    divided by w n^2, as the scorer divides it, before any comparison:
    two different sums can round to one value. The pair codes
    z[i] * k + z[j] fit in int8: a k >= 2 that passes the feasibility
    check and the guard has k <= n and k^n <= 2 * 10^7, so k <= 8.
    """
    n, k = z.shape[1], sizes.shape[1]
    t, table = _BLOCK_TERMS[objective], _term_table(objective, n)
    a, b, h = _public_blocks(int(t.w), t.h, k)
    pairs = _value_counts(z[:, src] * k + z[:, dst], k * k)
    o = (pairs[:, a * k + b] + pairs[:, b * k + a]) // h
    m = sizes[:, a] * (sizes[:, b] - (a == b)) // h
    terms = np.ascontiguousarray(table[m * (m + 1) // 2 + o])
    terms.sort(axis=1)
    held = np.count_nonzero(m, axis=1)
    totals = np.empty(len(z))
    # bincount, not np.unique, whose first call in a process adds about
    # 1 MB of resident memory.
    for c in np.flatnonzero(np.bincount(held)).tolist():
        rows = held == c
        totals[rows] = terms[rows, :c].sum(axis=1)
    return totals / (t.w * n * n)


def exact_argmax(g, k, cfg):
    """Global maximizer by exhaustive enumeration of canonical labelings.

    Refuses when k^n exceeds the enumeration guard. The labelings in
    first-occurrence canonical form are scored in lexicographic order, one
    chunk at a time, by numpy (see _canonical_labelings and
    _objective_values). A chunk holds at most _EXACT_CHUNK // (n + m + k^2)
    labelings, so memory stays bounded however large the label space. The
    term table is kept per (objective, n), and an enumeration that fits
    one chunk per (n, k, min_size), read-only, so repeated searches of one
    shape enumerate once; the guard bounds n, and so the caches, and the
    chunks are those _canonical_labelings yields. At k = 1, which the
    guard does not bound, the one labeling, all nodes in one community, is
    scored alone, with no table.

    Every value is the public objective's own float, so the values alone
    decide: np.argmax keeps a chunk's first largest value, and a later
    chunk wins only with a strictly larger one, so ties keep the
    lexicographically smallest canonical labeling. No labeling is
    recounted with block_counters. Every enumerated labeling is canonical
    and feasible, so the winner is the result as it stands.
    """
    n = g.n
    min_size = _min_size(n, k, cfg)
    space = k**n
    if space > _EXACT_GUARD:
        raise SearchSpaceError(
            f"label space k^n = {space} exceeds the enumeration guard {_EXACT_GUARD}"
        )
    if k == 1:
        best = Labeling(np.zeros(n, dtype=np.int64), 1)
        return FitResult(labeling=best,
                         objective_value=_scorer(cfg.objective)(block_counters(g, best)),
                         objective=cfg.objective, sweeps_used=0, restart_index=0,
                         feasible=True, converged=True)
    src = np.repeat(np.arange(n), g.degrees())
    once = src < g.indices
    src, dst = src[once], g.indices[once]
    rows = max(1, _EXACT_CHUNK // (n + src.size + k * k))
    best_value = best = None
    for z, sizes in _enumeration(n, k, min_size, rows):
        if not len(z):
            continue
        values = _objective_values(z, sizes, src, dst, cfg.objective)
        r = int(np.argmax(values))
        if best is None or values[r] > best_value:
            best_value, best = float(values[r]), z[r]
    if best is None:
        raise InfeasibleError(
            f"no labeling of {n} nodes into {k} communities meets alpha={cfg.alpha}"
        )
    return FitResult(labeling=Labeling(best, k), objective_value=best_value,
                     objective=cfg.objective, sweeps_used=0, restart_index=0, feasible=True,
                     converged=True)
