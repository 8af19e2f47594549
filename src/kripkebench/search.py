"""Bounded model enumeration and validity verdicts.

Bounded search is sound for refutation and only bounded-complete for
validity: a Refuted verdict carries a concrete countermodel, while
ValidUpToBounds says no countermodel exists within the stated bounds.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Iterator, KeysView, NamedTuple, Optional, Sequence, Union

from .semantics import (
    ATOM,
    CompiledFormulas,
    CompiledSequent,
    Evaluator,
    Frame,
    KripkeModel,
    bits,
    compile_sequent,
    find_refutation,  # unused here; a seam the benchmark tracer wraps (ROADMAP item 1)
    refuting_points,
    upward_closed_subsets,
    validate_model,
)
from .syntax import (
    Atom,
    Conn,
    Exists,
    Forall,
    Formula,
    Sequent,
    Signature,
)
from .truthfun import (
    Frozen,
    enumerate_truth_functions,
    is_monotonic,
    is_supermultiplicative,
)

SHAPES = ("any-preorder", "poset", "tree", "chain")

MODES = ("kripke", "cd", "classical")

# the most models labelled at once, as bits of one int per world and label
CHUNK_BITS = 1 << 16
# the most frames and models one `decide` may search; MAX_MODELS also caps
# the (chunk, assignment) pairs it labels
MAX_FRAMES = 10_000
MAX_MODELS = 1_000_000
# the most max_worlds * max_domain a search may take; the caps above count
# frames and models, not the orders and domains built before a frame is
BUDGET = 16
# the most models the frame streams kept between `decide` calls hold in all.
# A frame counts as its models plus FRAME_MODELS for its own fixed cost: a
# frame takes 2-10 KB, and its labels and its batch's a few bytes a model,
# so the streams take a few MB at most
STREAM_MODELS = 1 << 20
FRAME_MODELS = 1 << 10


class InconsistentVerdictError(RuntimeError):
    """The search and the re-check of its countermodel disagree."""


class SearchBounds(Frozen):
    __slots__ = ("max_worlds", "max_domain", "shape")

    def __init__(self, max_worlds: int, max_domain: int, shape: str = "poset"):
        if max_worlds < 1 or max_domain < 1:
            raise ValueError("bounds must be at least 1")
        if shape not in SHAPES:
            raise ValueError(f"unknown shape {shape!r}; known: {', '.join(SHAPES)}")
        if max_worlds * max_domain > BUDGET:
            raise ValueError(
                f"max_worlds * max_domain = {max_worlds * max_domain} exceeds budget {BUDGET}"
            )
        object.__setattr__(self, "max_worlds", max_worlds)
        object.__setattr__(self, "max_domain", max_domain)
        object.__setattr__(self, "shape", shape)


class ValidUpToBounds(NamedTuple):
    bounds: SearchBounds


class Refuted(NamedTuple):
    model: KripkeModel
    world: str
    assignment: dict[str, str]


Verdict = Union[ValidUpToBounds, Refuted]


# Each order generator yields the up-set masks of the orders on worlds
# 0..n-1, bit j of mask i set where world j lies above world i.


def _chain_orders(n: int) -> Iterator[tuple[int, ...]]:
    full = (1 << n) - 1
    yield tuple(full >> i << i for i in range(n))


def _tree_orders(n: int) -> Iterator[tuple[int, ...]]:
    # rooted at 0; node i > 0 picks a parent with a smaller index
    for parents in itertools.product(*(range(i) for i in range(1, n))):
        up = [1 << i for i in range(n)]
        for i in range(n - 1, 0, -1):  # children join their parents once whole
            up[parents[i - 1]] |= up[i]
        yield tuple(up)


def _posets(n: int) -> Iterator[tuple[int, ...]]:
    # the partial orders on 0..n-1 whose indexing is a linear extension, to
    # which every finite partial order relabels. Worlds join from the top,
    # each picking its strict up-set among the up-closed sets above it in
    # increasing mask order, so the orders come in increasing order of their
    # strict pairs, those of higher worlds the more significant bits.
    up = [1 << i for i in range(n)]

    def extend(i: int):
        if i < 0:
            yield tuple(up)
            return
        for above in upward_closed_subsets(tuple(range(i + 1, n)), up):
            up[i] = 1 << i | above
            yield from extend(i - 1)

    yield from extend(n - 1)


def _poset_orders(n: int) -> Iterator[tuple[int, ...]]:
    # rooted at 0: the posets on 1..n-1 in their order, with 0 below them all
    full = (1 << n) - 1
    for up in _posets(n - 1):
        yield (full,) + tuple(mask << 1 for mask in up)


def _preorder_orders(n: int) -> Iterator[tuple[int, ...]]:
    # the transitive sets of strict pairs, in increasing mask order over the
    # pairs (i, j), i != j, in lexicographic order. Pairs are decided from
    # the most significant bit down, each left out before it is put in. A
    # branch lives while the transitive closure of its chosen pairs holds no
    # left-out pair; then that closure completes it, so no branch dies late.
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]

    # reach[i]: the worlds the chosen pairs lead to from i, as a bitmask;
    # out[i]: the same for the left-out pairs
    def extend(k: int, reach: tuple[int, ...], out: tuple[int, ...]):
        if k < 0:
            yield tuple(r | 1 << i for i, r in enumerate(reach))
            return
        a, b = pairs[k]
        if not reach[a] >> b & 1:
            yield from extend(k - 1, reach, out[:a] + (out[a] | 1 << b,) + out[a + 1 :])
        gained = 1 << b | reach[b]
        grown = tuple(
            r | gained if i == a or r >> a & 1 else r for i, r in enumerate(reach)
        )
        if not any(r & o for r, o in zip(grown, out)):
            yield from extend(k - 1, grown, out)

    yield from extend(len(pairs) - 1, (0,) * n, (0,) * n)


_ORDER_GENERATORS = {
    "chain": _chain_orders,
    "tree": _tree_orders,
    "poset": _poset_orders,
    "any-preorder": _preorder_orders,
}


class SlottedFrame(NamedTuple):
    """One frame of the search stream, the fact slots over it, and the atom
    labels that label its models in chunks.

    `up` holds the order's up-set masks. Each slot is `(pred, args,
    options)`, where the options are the upward-closed sets of worlds at
    which the fact may hold, as masks over world indices, in enumeration
    order. The frame's models are the `itertools.product` of the slots'
    options, `size` of them, and model m of that product is the m-th model
    of the frame in `enumerate_models`.

    The models come in chunks of `inner`, at most the CHUNK_BITS in force
    when the frame's stream began: chunk c holds models [c * inner, (c + 1) *
    inner), and `chunks[c]` maps each atom `(pred, args)` to its label over
    `labelled`, the frame at width `inner`. The leading slots are fixed per
    chunk, and the trailing ones vary within it. An atom's label on a
    varying slot is periodic: with `stride` the product of the sizes of the
    slots after it, option o fills bits [o * stride, (o + 1) * stride) of
    each period, and one multiplication repeats that period across the
    block. The chunks share the labels of the varying slots.

    `decide` labels a frame as part of a `Batch` (see `_FrameStreams.read`).
    A frame that stands alone is a batch of itself, labelled in its chunks;
    a frame that joins others has one chunk, whose labels the batch lays
    side by side with theirs.
    """

    worlds: tuple[str, ...]
    up: tuple[int, ...]
    domains: dict[str, tuple[str, ...]]
    slots: tuple[tuple[str, tuple[str, ...], tuple[int, ...]], ...]
    size: int
    labelled: Frame
    inner: int
    chunks: tuple[dict[tuple[str, tuple[str, ...]], int], ...]


def _slotted_frame(worlds, up, domains, slots, size, chunk_bits) -> SlottedFrame:
    split, inner = 0, size
    while inner > chunk_bits:
        inner //= len(slots[split][2])
        split += 1
    labelled = Frame(worlds, up, domains, inner)
    ones = labelled.ones
    offsets = [offset for offset, _ in labelled.named]
    varying: dict[tuple[str, tuple[str, ...]], int] = {}
    stride = 1
    for pred, args, options in reversed(slots[split:]):
        period = stride * len(options)
        repeat = ones // ((1 << period) - 1)
        unit = (1 << stride) - 1
        periods = [0] * len(offsets)
        for o, chosen in enumerate(options):
            while chosen:  # each world of the option, lowest first
                low = chosen & -chosen
                periods[low.bit_length() - 1] |= unit << (o * stride)
                chosen ^= low
        label = 0
        for offset, pattern in zip(offsets, periods):
            label |= repeat * pattern << offset
        varying[pred, args] = label
        stride = period
    leading = slots[:split]
    chunks = []
    for choice in itertools.product(*(options for _, _, options in leading)):
        atoms = varying
        if choice:
            atoms = dict(varying)
            for (pred, args, _), chosen in zip(leading, choice):
                atoms[pred, args] = sum(ones << o for i, o in enumerate(offsets) if chosen >> i & 1)
        chunks.append(atoms)
    return SlottedFrame(worlds, up, domains, slots, size, labelled, inner, tuple(chunks))


def _past_cap(cap: int, counted: str) -> ValueError:
    return ValueError(f"the search has more than {cap} {counted}; lower the bounds")


def enumerate_frames(
    signature: Signature, bounds: SearchBounds, constant_domain: bool = False
) -> Iterator[SlottedFrame]:
    """Deterministic stream of the frames within the bounds that can carry
    a first countermodel, with one domain at every world when
    `constant_domain`, each with its fact slots and chunk labels.

    Worlds are w0..w{n-1}, elements a0..a{m-1}; orders, domain assignments,
    and interpretations are enumerated in a fixed construction order, and
    heredity is built in (each fact slot ranges over upward-closed world
    sets), so every model of a frame is valid. For every shape but
    `any-preorder`, w0 lies below every world; the domain of w0 is always a
    prefix a0..a{k-1}.

    The models of the stream, frame by frame in the order of each frame's
    slot product, are a subsequence of the unreduced stream (every order of
    the shape, every root domain) that keeps its first countermodel M, so
    `decide` finds the same model, world and assignment. Say M is refuted
    first at world w:

    - A sequent's value at w depends only on the up-set of w (the
      generated-submodel lemma; Troelstra & van Dalen, Constructivism in
      Mathematics, 1988). That up-set relabels into the stream of its shape
      and mode and, with fewer worlds, would come earlier. So w lies below
      every world, and where the indexing extends the order (posets, trees,
      chains), w = w0.
    - Renaming elements changes no value. Renaming the domain of w0 onto the
      prefix of its size, the subset of least mask among those of that size,
      gives a countermodel whose domain tuple, compared at w0 first, comes
      earlier. So the domain of w0 is a prefix.

    A preorder's least worlds need not include w0, so `any-preorder` keeps
    all its orders.

    The stream is a function of the signature's predicates, the bounds,
    `constant_domain`, MAX_FRAMES, MAX_MODELS and CHUNK_BITS alone: no
    sequent is read here, and connectives act only through their truth
    tables when a formula is labelled. So `decide` builds each stream at
    most once per process, lazily, as far as some call has read it, and
    shares it between calls, keyed by all six, with the batches it is
    labelled in (`_FrameStreams`). Nothing
    writes to a frame once it is built, and `decode_model` gives each model
    its own domains dict. The kept streams hold at most STREAM_MODELS models
    in all, each frame counting FRAME_MODELS more for its own cost; the
    least recently read are dropped to make room, and a stream that alone
    passes the budget is read through and not kept. A stream whose build
    raised is dropped.

    Raises ValueError before the stream passes MAX_FRAMES frames or
    MAX_MODELS models. Models are counted slot by slot, so a frame past the
    cap is never built to the end. This is the one place the caps are
    enforced: a kept stream was built under the caps of its key, so it is
    refused where a new build would be. The reader labels the frames built
    before a refusal first, so a countermodel among them is still found.
    """
    chunk_bits = CHUNK_BITS
    universe = tuple(f"a{k}" for k in range(bounds.max_domain))
    # a domain is a mask over the universe, bit k for a{k}, named names[mask]
    names = [tuple(itertools.compress(universe, bits(mask))) for mask in range(1 << len(universe))]
    prefixes = [(2 << k) - 1 for k in range(len(universe))]
    subsets = range(1, 1 << len(universe))
    bit = {e: 1 << k for k, e in enumerate(universe)}
    frames = models = 0
    for n in range(1, bounds.max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(n))
        for up in _ORDER_GENERATORS[bounds.shape](n):
            if constant_domain:
                domain_choices: Iterator = ((d,) * n for d in prefixes)
            else:
                # a domain holds the domains below it: over the strict pairs
                strict = [(a, b) for a in range(n) for b in range(n) if a != b and up[a] >> b & 1]
                domain_choices = (
                    combo
                    for combo in itertools.product(prefixes, *[subsets] * (n - 1))
                    if not any(combo[a] & ~combo[b] for a, b in strict)
                )
            # upward-closed subsets of the worlds where a slot is defined
            closed: dict[tuple[int, ...], tuple[frozenset[int], ...]] = {}
            for combo in domain_choices:
                frames += 1
                if frames > MAX_FRAMES:
                    raise _past_cap(MAX_FRAMES, "frames")
                # a slot's arguments lie in some domain, so in their union
                union = 0
                for domain in combo:
                    union |= domain
                slots = []
                size = 1
                for pred, arity in signature.predicates.items():
                    for args in itertools.product(names[union], repeat=arity):
                        need = sum({bit[e] for e in args})  # distinct bits: their union
                        valid = tuple(i for i, domain in enumerate(combo) if domain & need == need)
                        if not valid:
                            continue
                        options = closed.get(valid)
                        if options is None:
                            options = closed[valid] = tuple(
                                upward_closed_subsets(valid, up)
                            )
                        slots.append((pred, args, options))
                        size *= len(options)
                        if models + size > MAX_MODELS:
                            raise _past_cap(MAX_MODELS, "models")
                models += size
                domains = {worlds[i]: names[combo[i]] for i in range(n)}
                yield _slotted_frame(worlds, up, domains, tuple(slots), size, chunk_bits)


class Batch(NamedTuple):
    """Consecutive frames of one world count of a stream, labelled as one
    unit of the stream (see `_FrameStreams.read`).

    A batch of one frame is that frame's own `labelled`, `inner` and
    `chunks`. A batch of several has one chunk of `size` models: its frames'
    models sit side by side in each world's block, in stream order, frame k
    from bit `starts[k]`, laid out by `Frame.side_by_side`, and each atom's
    label is every frame's own label placed at the frame's run of bits. A
    bit-sliced step acts per model, so bit m of a batch label is the label
    of the model it stands for in that model's own frame, and the batch's
    lowest refuted bit is the first countermodel of its frames.
    """

    frames: tuple[SlottedFrame, ...]
    starts: tuple[int, ...]
    worlds: tuple[str, ...]
    size: int
    labelled: Frame
    inner: int
    chunks: tuple[dict[tuple[str, tuple[str, ...]], int], ...]

    def locate(self, index: int) -> tuple[SlottedFrame, int]:
        """The frame of model `index` of the batch, and its index there."""
        k = bisect.bisect_right(self.starts, index) - 1
        return self.frames[k], index - self.starts[k]


def _batch(frames: Sequence[SlottedFrame]) -> Batch:
    """The batch of consecutive frames of one world count, in stream order."""
    if len(frames) == 1:
        (frame,) = frames
        return Batch(
            (frame,), (0,), frame.worlds, frame.size, frame.labelled, frame.inner, frame.chunks
        )
    worlds = frames[0].worlds
    labelled = Frame.side_by_side(worlds, [(f.up, f.domains, f.size) for f in frames])
    width = labelled.width
    atoms: dict[tuple[str, tuple[str, ...]], int] = {}
    starts = []
    start = 0
    for frame in frames:
        # one chunk of `size` models: block i of a label is at i * size
        (own,) = frame.chunks
        ones = frame.labelled.ones
        for atom, label in own.items():
            placed = atoms.get(atom, 0)
            for i in range(len(worlds)):
                placed |= (label >> i * frame.size & ones) << (i * width + start)
            atoms[atom] = placed
        starts.append(start)
        start += frame.size
    return Batch(tuple(frames), tuple(starts), worlds, width, labelled, width, (atoms,))


class _Stream:
    """A frame stream as far as it is built: the batches closed so far, the
    models their frames count as (see STREAM_MODELS), the builder that
    extends it, None once the stream has ended, the frames after the last
    batch, the widest element set among them, and the world count of the
    last frame."""

    __slots__ = ("batches", "held", "builder", "pending", "widest", "count")

    def __init__(self, builder: Iterator[SlottedFrame]):
        self.batches: list[Batch] = []
        self.held = 0
        self.builder: Optional[Iterator[SlottedFrame]] = builder
        self.pending: list[SlottedFrame] = []
        self.widest: KeysView[str] = {}.keys()
        self.count = 0

    @property
    def frames(self) -> list[SlottedFrame]:
        """The frames built so far, in stream order."""
        return [frame for batch in self.batches for frame in batch.frames] + self.pending

    def place(self, frame: SlottedFrame, chunk_bits: int) -> list[Batch]:
        """Puts the next frame in a batch, and gives the batches that this
        closes, in stream order."""
        closed = []
        elements = frame.labelled.present.keys()
        alone = len(frame.worlds) != self.count or frame.size > chunk_bits
        self.count = len(frame.worlds)
        if self.pending and (
            alone
            or sum(f.size for f in self.pending) + frame.size > chunk_bits
            or not (elements <= self.widest or elements >= self.widest)
        ):
            closed.append(_batch(self.pending))
            self.pending = []
        if alone:
            closed.append(_batch([frame]))
            return closed
        if not self.pending or elements >= self.widest:
            self.widest = elements
        self.pending.append(frame)
        return closed

    def end(self) -> list[Batch]:
        """The builder has ended: the last batch, if any frame waits."""
        self.builder = None
        closed = [_batch(self.pending)] if self.pending else []
        self.pending = []
        return closed


class _FrameStreams:
    """The frame streams built in this process, by key, least recently read
    first, holding at most STREAM_MODELS models in all."""

    def __init__(self):
        self.streams: dict[tuple, _Stream] = {}
        self.held = 0

    def clear(self) -> None:
        self.streams.clear()
        self.held = 0

    def read(
        self, signature: Signature, bounds: SearchBounds, constant_domain: bool
    ) -> Iterator[Batch]:
        """The frames of `enumerate_frames` in batches, built once while
        held. The key holds every value the builder reads, so a kept stream
        is the one a new build would give; the builder alone refuses past
        the caps, and a stream whose builder raised is dropped.

        The first frame of each world count stands alone: it has the
        smallest domains, and most refuted searches end in a stream's first
        frame. So does a frame of more than CHUNK_BITS models, labelled in
        its chunks. The other frames of a world count join the batch before
        them while it fits in CHUNK_BITS models and one of its frames holds
        the elements of all, so that the batch's elements are those of its
        widest frame; a batch closes when the next frame does not join it
        or the stream ends. When the builder refuses at a cap, the frames
        built before the refusal are served as one last batch first, as each
        of them was read before the builder was asked for more; the refusal
        propagates when the reader asks for what follows that batch.
        """
        predicates = tuple(signature.predicates.items())
        key = (predicates, bounds, constant_domain, MAX_FRAMES, MAX_MODELS, CHUNK_BITS)
        stream = self.streams.pop(key, None)
        if stream is None:
            stream = _Stream(enumerate_frames(signature, bounds, constant_domain))
        self.streams[key] = stream
        index = 0
        while True:
            if index < len(stream.batches):
                yield stream.batches[index]
                index += 1
                continue
            if stream.builder is None:
                return
            try:
                frame = next(stream.builder, None)
            except ValueError:
                # a refusal at a cap: never kept, and the frames before it
                # are labelled first
                self._drop(key, stream)
                if stream.pending:
                    yield _batch(stream.pending)
                raise
            except BaseException:
                # a builder that raised has ended: never serve it truncated
                self._drop(key, stream)
                raise
            # batches are cut at the CHUNK_BITS of the key, the builder's own
            closed = stream.end() if frame is None else stream.place(frame, key[-1])
            if not self._hold(key, stream, frame, closed):
                yield from closed  # dropped: read through, keeping nothing

    def _hold(
        self, key: tuple, stream: _Stream, frame: Optional[SlottedFrame], closed: list[Batch]
    ) -> bool:
        """Counts a built frame and keeps the batches it closed, in a stream
        still held; whether it is."""
        if self.streams.get(key) is not stream:
            return False
        stream.batches.extend(closed)
        if frame is not None:
            stream.held += frame.size + FRAME_MODELS
            self.held += frame.size + FRAME_MODELS
        # the least recently read streams go first, and this one last
        for other in list(self.streams):
            if self.held <= STREAM_MODELS:
                break
            self._drop(other, self.streams[other])
        return True

    def _drop(self, key: tuple, stream: _Stream) -> None:
        if self.streams.get(key) is stream:
            del self.streams[key]
            self.held -= stream.held


_streams = _FrameStreams()


def enumerate_models(
    signature: Signature, bounds: SearchBounds, constant_domain: bool = False
) -> Iterator[KripkeModel]:
    """The models of `enumerate_frames`, decoded one by one, for tests and
    the benchmark tracer."""
    for frame in enumerate_frames(signature, bounds, constant_domain):
        for index in range(frame.size):
            yield decode_model(frame, index)


def decode_model(frame: SlottedFrame, index: int) -> KripkeModel:
    """Model `index` of the frame's slot product, whose last slot varies
    fastest. The model has its own domains dict, since frames are shared."""
    labels = {}
    for pred, args, options in reversed(frame.slots):
        index, choice = divmod(index, len(options))
        if options[choice]:
            labels[pred, args] = options[choice]
    return KripkeModel(frame.worlds, frame.up, dict(frame.domains), labels=labels)


def first_refuted(batch: Batch, compiled: CompiledSequent) -> Optional[int]:
    """The index among the batch's models of the first one that refutes the
    sequent, or None.

    Bit m of a chunk's blocks is model m of the chunk, and the chunks come
    in order, so the lowest set bit of the refuted models is the first
    countermodel. A frame of `enumerate_frames` reads as a batch of itself.
    """
    for start, evaluator in _chunks(batch, compiled.formulas):
        hits = evaluator.refuted_models(compiled)
        if hits:
            return start + (hits & -hits).bit_length() - 1
    return None


def _chunks(batch: Batch, compiled: CompiledFormulas) -> Iterator[tuple[int, Evaluator]]:
    """The batch's chunks in order, each as the index of its first model
    and an evaluator of the chunk."""
    for chunk, atoms in enumerate(batch.chunks):
        yield chunk * batch.inner, Evaluator.of_frame(compiled, batch.labelled, atoms)


def _restrict_to_sequent(signature: Signature, compiled: CompiledSequent) -> Signature:
    # predicates absent from the sequent cannot affect its value; dropping
    # them keeps the enumeration small without changing any verdict
    used = {node[1] for node in compiled.formulas.nodes if node[0] == ATOM}
    return Signature({p: a for p, a in signature.predicates.items() if p in used}, {})


def decide(
    signature: Signature,
    sequent: Sequent,
    mode: str,
    bounds: SearchBounds,
) -> Verdict:
    """Search the bounded model class of the given mode for a countermodel.

    kripke: all models within bounds; cd: constant-domain models; classical:
    one-world models. Returns the first countermodel in construction order,
    else ValidUpToBounds. The models of each batch of the stream
    (`_FrameStreams.read`) are labelled at once by `first_refuted`; only the
    first countermodel is decoded, from the frame of the batch that holds
    it, and it is re-checked by `validate_model` and the independent
    `refuting_points`, which also gives its world and assignment.

    A search that would pass MAX_FRAMES frames or MAX_MODELS models raises
    ValueError before it does, and so does one that would label more than
    MAX_MODELS pairs of a chunk and an assignment of the sequent's free
    variables to a frame's elements. That count is kept frame by frame, as
    if each frame were labelled alone, and batches keep the verdicts at
    every cap: a batch labels the frames the builder gave before it
    refused, and a countermodel there is returned; past the labelling cap
    only the frames before the one that passes it are labelled. A batch
    labels the assignments to the elements of the widest of its frames,
    whose own count it is at most, so this count bounds the work.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {', '.join(MODES)}")
    effective = SearchBounds(1, bounds.max_domain, bounds.shape) if mode == "classical" else bounds
    compiled = compile_sequent(signature, sequent)
    search_signature = _restrict_to_sequent(signature, compiled)
    labellings = 0
    for batch in _streams.read(search_signature, effective, mode == "cd"):
        # the labelling cap, counted frame by frame (see above)
        passed = None
        for k, frame in enumerate(batch.frames):
            elements = len(frame.labelled.present)
            labellings += len(frame.chunks) * elements ** len(compiled.slots)
            if labellings > MAX_MODELS:
                passed = k
                break
        if passed is not None:
            batch = _batch(batch.frames[:passed]) if passed else None
        index = None if batch is None else first_refuted(batch, compiled)
        if index is not None:
            return _rechecked(decode_model(*batch.locate(index)), signature, sequent)
        if passed is not None:
            raise ValueError(
                f"the search labels more than {MAX_MODELS} assignments; lower the bounds"
            )
    return ValidUpToBounds(effective)


def _rechecked(model: KripkeModel, signature: Signature, sequent: Sequent) -> Refuted:
    violations = validate_model(model)
    if violations:
        raise InconsistentVerdictError(
            "inconsistent search: the decoded countermodel is invalid: " + "; ".join(violations)
        )
    witness = next(refuting_points(model, signature, sequent), None)
    if witness is None:
        raise InconsistentVerdictError(
            "inconsistent search: the bit-sliced search refuted a model"
            " that the scalar evaluator validates"
        )
    return Refuted(model, *witness)


# --- connective census and logic relations ----------------------------------


class ConnectiveCensus(NamedTuple):
    """Truth functions of one arity grouped by (supermultiplicative, monotonic)."""

    arity: int
    quadrants: dict[tuple[bool, bool], tuple[str, ...]]

    def count(self, supermultiplicative: bool, monotonic: bool) -> int:
        return len(self.quadrants[(supermultiplicative, monotonic)])

    def tables(self, supermultiplicative: bool, monotonic: bool) -> tuple[str, ...]:
        return self.quadrants[(supermultiplicative, monotonic)]


def classify_connectives(arity: int) -> ConnectiveCensus:
    quadrants: dict[tuple[bool, bool], list[str]] = {
        (sm, mono): [] for sm in (True, False) for mono in (True, False)
    }
    for tf in enumerate_truth_functions(arity):
        sm, _ = is_supermultiplicative(tf)
        quadrants[(sm, is_monotonic(tf))].append(tf.table_string())
    return ConnectiveCensus(
        arity, {key: tuple(tables) for key, tables in quadrants.items()}
    )


class ConnectiveProperties(NamedTuple):
    name: str
    supermultiplicative: bool
    monotonic: bool
    witness: Optional[tuple[str, str]]  # table-violating pair, as bit strings


class RelationReport(NamedTuple):
    """Which of the three validity classes coincide over a signature.

    Membership of the intuitionistic class in the constant-domain class is an
    equality exactly when every connective is supermultiplicative; the
    constant-domain and classical classes coincide exactly when every
    connective is monotonic; and both together settle the third relation.
    """

    connectives: tuple[ConnectiveProperties, ...]

    @property
    def ils_equals_cds(self) -> bool:
        return all(c.supermultiplicative for c in self.connectives)

    @property
    def cds_equals_cls(self) -> bool:
        return all(c.monotonic for c in self.connectives)

    @property
    def ils_equals_cls(self) -> bool:
        return self.ils_equals_cds and self.cds_equals_cls


def report_relations(signature: Signature) -> RelationReport:
    rows = []
    for name, tf in signature.connectives.items():
        sm, witness = is_supermultiplicative(tf)
        pair = (str(witness[0]), str(witness[1])) if witness else None
        rows.append(ConnectiveProperties(name, sm, is_monotonic(tf), pair))
    return RelationReport(tuple(rows))


# --- deterministic sequent corpus -------------------------------------------

# each side of a corpus sequent holds at most CORPUS_MAX_SIDE formulas of
# depth at most CORPUS_MAX_DEPTH over CORPUS_VARIABLES
CORPUS_MAX_SIDE = 2
CORPUS_MAX_DEPTH = 3
CORPUS_VARIABLES = ("x", "y")
# check_relations_on_corpus decides cd and classical at the small bounds and
# kripke at the large ones
CORPUS_SMALL_BOUNDS = SearchBounds(2, 2, "tree")
CORPUS_LARGE_BOUNDS = SearchBounds(3, 2, "poset")
# the bounds of a synthesized certificate's constant-domain check
DEFAULT_CD_BOUNDS = SearchBounds(max_worlds=3, max_domain=2, shape="tree")


def random_formula(
    rng: random.Random,
    signature: Signature,
    max_depth: int,
    variables: tuple[str, ...] = CORPUS_VARIABLES,
) -> Formula:
    """One random formula of depth <= max_depth (atoms have depth 0)."""
    preds = list(signature.predicates.items())
    conns = list(signature.connectives.items())

    def atom() -> Formula:
        name, arity = rng.choice(preds)
        return Atom(name, tuple(rng.choice(variables) for _ in range(arity)))

    def build(depth: int) -> Formula:
        if depth <= 0 or rng.random() < 0.3:
            return atom()
        kinds = ["quant"] + (["conn"] * 2 if conns else [])
        kind = rng.choice(kinds)
        if kind == "conn":
            name, tf = rng.choice(conns)
            return Conn(name, tuple(build(depth - 1) for _ in range(tf.arity)))
        var = rng.choice(variables)
        body = build(depth - 1)
        return Forall(var, body) if rng.random() < 0.5 else Exists(var, body)

    return build(max_depth)


def sequent_corpus(signature: Signature, seed: int, count: int) -> list[Sequent]:
    """Deterministic sample of sequents with bounded size and depth."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        antecedent = tuple(
            random_formula(rng, signature, CORPUS_MAX_DEPTH)
            for _ in range(rng.randint(0, CORPUS_MAX_SIDE))
        )
        succedent = tuple(
            random_formula(rng, signature, CORPUS_MAX_DEPTH)
            for _ in range(rng.randint(0, CORPUS_MAX_SIDE))
        )
        corpus.append(Sequent(antecedent, succedent))
    return corpus


class CorpusRecord(NamedTuple):
    """Verdict triple for one corpus sequent, with consistency flags."""

    sequent: Sequent
    kripke_refuted: Optional[bool]
    cd_refuted: Optional[bool]
    classical_refuted: Optional[bool]
    inconclusive: bool
    note: str


def check_relations_on_corpus(signature: Signature, corpus: list[Sequent]) -> list[CorpusRecord]:
    """Cross-mode consistency sweep used by the desk-scale theorem checks.

    For each sequent: a cd refutation at the small bounds must be matched by
    a kripke refutation at the large bounds (constant-domain models are
    Kripke models); for all-monotonic signatures a cd refutation must be
    matched classically; signatures that guarantee coincidence but where the
    bounded search exhausts its budget are reported inconclusive, never
    failed, since only existence of a countermodel is guaranteed, not size.
    """
    report = report_relations(signature)
    records = []
    for sequent in corpus:
        cd = decide(signature, sequent, "cd", CORPUS_SMALL_BOUNDS)
        cd_refuted = isinstance(cd, Refuted)
        kripke_refuted = None
        classical_refuted = None
        inconclusive = False
        note = ""
        if cd_refuted:
            kripke = decide(signature, sequent, "kripke", CORPUS_LARGE_BOUNDS)
            kripke_refuted = isinstance(kripke, Refuted)
            if not kripke_refuted:
                note = "cd-refuted but kripke search found nothing at larger bounds"
                inconclusive = True
            if report.cds_equals_cls:
                classical = decide(signature, sequent, "classical", CORPUS_SMALL_BOUNDS)
                classical_refuted = isinstance(classical, Refuted)
                if not classical_refuted:
                    note = "cd-refuted but classical search exhausted its bounds"
                    inconclusive = True
        records.append(
            CorpusRecord(sequent, kripke_refuted, cd_refuted, classical_refuted, inconclusive, note)
        )
    return records
