"""Source models, auxiliary-variable systems, Markov checkers, and the casebook.

Naming conventions (fixed, also used by the JSON schema):

* source variables are ``Y0`` (hidden), ``Y1`` .. ``YL`` (observations) and
  ``Y{L+1}`` (decoder side information), in this order;
* the auxiliary system consists of ``W`` and ``T`` (shared randomness /
  time sharing), one ``U{l}`` per encoder, and a single reproduction
  variable ``Z``;
* when there are K > 1 reproductions, ``Z`` carries the product alphabet with
  the tuple (z_1, ..., z_K) encoded row-major, so the joint reproduction
  kernel p(z | u, side info, t) is preserved exactly;
* an optional coupled variable ``X`` is attached so that it interacts with
  the auxiliary system only through the sources.

Distortion index ``k`` is 0-based throughout this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import AlphabetMismatchError, MarkovCheckError, VariableError
from .prob import Channel, EntropyOracle, JointPmf, _code_dtype, _refuse_over_cap, _Support
from .prob import _MAX_TABLE_CELLS, _whole

MARKOV_TOL = 1e-9  # pass tolerance for Markov residuals, in nats

GAMMA_CLASSES = ("outer", "bt_inner", "bt_outer")


def source_names(L: int) -> tuple[str, ...]:
    return tuple(f"Y{i}" for i in range(L + 2))


def encoder_names(L: int) -> tuple[str, ...]:
    return tuple(f"U{l}" for l in range(1, L + 1))


@dataclass(frozen=True)
class SourceModel:
    """A memoryless source (Y0, Y1..YL, Y_{L+1}) with K distortion measures.

    ``distortions[k]`` is a dense nonnegative table indexed by
    (y0, y1, ..., yL, y_{L+1}, z_k); ``reproduction_sizes[k]`` is |Z_k|.
    """

    L: int
    K: int
    joint: JointPmf
    distortions: tuple[np.ndarray, ...]
    reproduction_sizes: tuple[int, ...]

    def __post_init__(self):
        L, K = _whole(self.L, "L"), _whole(self.K, "K")
        if L < 1 or K < 1:
            raise ValueError(f"need L >= 1 and K >= 1, got L={L}, K={K}")
        names = self.joint.names
        # The count first: a huge L from a file must not build its names.
        if len(names) != L + 2 or names != source_names(L):
            raise VariableError(
                f"source joint must cover exactly Y0..Y{L + 1} for L={L}, got {names}"
            )
        sizes = tuple(_whole(s, "reproduction_sizes") for s in self.reproduction_sizes)
        if len(sizes) != K or any(s < 1 for s in sizes):
            raise ValueError(f"need K={K} positive reproduction sizes, got {sizes}")
        tables = []
        for k, table in enumerate(self.distortions):
            table = np.asarray(table, dtype=float)
            want = self.joint.shape + (sizes[k],)
            if table.shape != want:
                raise AlphabetMismatchError(
                    f"distortion table {k} has shape {table.shape}, expected {want}"
                )
            if not np.all(np.isfinite(table)) or np.any(table < 0.0):
                raise ValueError(f"distortion table {k} must be finite and >= 0")
            table = table.copy()
            table.flags.writeable = False
            tables.append(table)
        if len(tables) != K:
            raise ValueError(f"need K={K} distortion tables, got {len(tables)}")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "distortions", tuple(tables))
        object.__setattr__(self, "reproduction_sizes", sizes)

    @property
    def z_size(self) -> int:
        """Alphabet size of the composite reproduction variable Z."""
        return int(np.prod(self.reproduction_sizes, dtype=np.int64))

    def observation_size(self, l: int) -> int:
        return self.joint.size_of(f"Y{l}")

    def to_json(self) -> dict:
        return {
            "L": self.L,
            "K": self.K,
            "joint": self.joint.to_json(),
            "reproduction_sizes": list(self.reproduction_sizes),
            "distortions": [
                [float(x) for x in t.reshape(-1)] for t in self.distortions
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SourceModel":
        joint = JointPmf.from_json(payload["joint"])
        sizes = tuple(_whole(s, "reproduction_sizes") for s in payload["reproduction_sizes"])
        flats = payload["distortions"]
        if len(flats) != len(sizes):
            raise ValueError(f"reproduction_sizes needs {len(flats)} entries, got {len(sizes)}")
        tables = tuple(
            np.asarray(flat, dtype=float).reshape(joint.shape + (size,))
            for flat, size in zip(flats, sizes)
        )
        return cls(payload["L"], payload["K"], joint, tables, sizes)


@dataclass(frozen=True)
class AuxSystem:
    """An auxiliary-variable system given by its component kernels.

    * ``wt_pmf``: joint pmf of (W, T), independent of the sources;
    * ``encoder_kernels[l-1]``: kernel (Y{l}, W, T) -> U{l};
    * ``decoder_kernel``: kernel (U1..UL, Y{L+1}, T) -> Z.

    W and T are always explicit variables (possibly of size 1), so the same
    type serves the outer class and both Berger-Tung classes; a size-1 W is
    the deterministic-W case.
    """

    wt_pmf: JointPmf
    encoder_kernels: tuple[Channel, ...]
    decoder_kernel: Channel

    def __post_init__(self):
        if self.wt_pmf.names != ("W", "T"):
            raise VariableError(f"wt_pmf must cover ('W', 'T'), got {self.wt_pmf.names}")
        w_size = self.wt_pmf.size_of("W")
        t_size = self.wt_pmf.size_of("T")
        kernels = tuple(self.encoder_kernels)
        L = len(kernels)
        if L < 1:
            raise ValueError("need at least one encoder kernel")
        for l, ker in enumerate(kernels, start=1):
            want_names = (f"Y{l}", "W", "T")
            if tuple(n for n, _ in ker.inputs) != want_names:
                raise VariableError(
                    f"encoder kernel {l} inputs must be {want_names}, got "
                    f"{tuple(n for n, _ in ker.inputs)}"
                )
            if ker.inputs[1][1] != w_size or ker.inputs[2][1] != t_size:
                raise AlphabetMismatchError(
                    f"encoder kernel {l} W/T sizes disagree with wt_pmf"
                )
            if ker.output[0] != f"U{l}":
                raise VariableError(f"encoder kernel {l} must output 'U{l}'")
        dec = self.decoder_kernel
        want = encoder_names(L) + (f"Y{L + 1}", "T")
        if tuple(n for n, _ in dec.inputs) != want:
            raise VariableError(
                f"decoder kernel inputs must be {want}, got {tuple(n for n, _ in dec.inputs)}"
            )
        for l in range(L):
            if dec.inputs[l][1] != kernels[l].output[1]:
                raise AlphabetMismatchError(
                    f"decoder input U{l + 1} size {dec.inputs[l][1]} != encoder output "
                    f"size {kernels[l].output[1]}"
                )
        if dec.inputs[-1][1] != t_size:
            raise AlphabetMismatchError("decoder T size disagrees with wt_pmf")
        if dec.output[0] != "Z":
            raise VariableError("decoder kernel must output 'Z'")
        object.__setattr__(self, "encoder_kernels", kernels)

    @property
    def L(self) -> int:
        return len(self.encoder_kernels)

    def to_json(self) -> dict:
        return {
            "wt_pmf": self.wt_pmf.to_json(),
            "encoder_kernels": [k.to_json() for k in self.encoder_kernels],
            "decoder_kernel": self.decoder_kernel.to_json(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "AuxSystem":
        return cls(
            JointPmf.from_json(payload["wt_pmf"]),
            tuple(Channel.from_json(k) for k in payload["encoder_kernels"]),
            Channel.from_json(payload["decoder_kernel"]),
        )


@dataclass(frozen=True)
class XChannel:
    """A coupled variable X drawn from the sources: kernel (Y0..Y{L+1}) -> X."""

    kernel: Channel

    def __post_init__(self):
        if self.kernel.output[0] != "X":
            raise VariableError("XChannel kernel must output 'X'")
        names = tuple(n for n, _ in self.kernel.inputs)
        if len(names) < 3 or names != source_names(len(names) - 2):
            raise VariableError(
                f"XChannel inputs must be the full source tuple, got {names}"
            )

    @property
    def L(self) -> int:
        return len(self.kernel.inputs) - 2

    def to_json(self) -> dict:
        return {"kernel": self.kernel.to_json()}

    @classmethod
    def from_json(cls, payload: dict) -> "XChannel":
        return cls(Channel.from_json(payload["kernel"]))


@dataclass(frozen=True)
class MarkovReport:
    """Per-condition conditional-mutual-information residuals, in nats.

    It passes when every residual is at most ``MARKOV_TOL``; the tolerance is
    fixed, and a caller who wants another threshold compares ``worst``."""

    residuals: tuple[tuple[str, float], ...]

    def __post_init__(self):
        # CMI can carry a floating-point residue of order -1e-15; a residual
        # is a nonnegative quantity by definition.
        cleaned = tuple((name, max(0.0, float(v))) for name, v in self.residuals)
        object.__setattr__(self, "residuals", cleaned)

    @property
    def worst(self) -> float:
        return max((v for _, v in self.residuals), default=0.0)

    @property
    def passed(self) -> bool:
        return self.worst <= MARKOV_TOL

    def as_dict(self) -> dict[str, float]:
        return dict(self.residuals)

    def require(self, what: str) -> None:
        if not self.passed:
            lines = ", ".join(f"{n}={v:.3e}" for n, v in self.residuals if v > MARKOV_TOL)
            raise MarkovCheckError(f"{what} fails Markov check: {lines}", report=self)


# ---------------------------------------------------------------------------
# Joint construction and checks
# ---------------------------------------------------------------------------


def _check_alphabets(model: SourceModel, gamma: AuxSystem) -> None:
    if gamma.L != model.L:
        raise AlphabetMismatchError(f"gamma has L={gamma.L}, model has L={model.L}")
    for l in range(1, model.L + 1):
        want = model.observation_size(l)
        have = gamma.encoder_kernels[l - 1].inputs[0][1]
        if have != want:
            raise AlphabetMismatchError(
                f"encoder kernel {l} expects |Y{l}|={have}, model has {want}"
            )
    side = gamma.decoder_kernel.inputs[model.L][1]
    if side != model.joint.size_of(f"Y{model.L + 1}"):
        raise AlphabetMismatchError("decoder side-information size disagrees with model")
    if gamma.decoder_kernel.output[1] != model.z_size:
        raise AlphabetMismatchError(
            f"decoder output size {gamma.decoder_kernel.output[1]} != "
            f"product reproduction size {model.z_size}"
        )


def _check_x(model: SourceModel, x: XChannel) -> None:
    if x.L != model.L:
        raise AlphabetMismatchError(f"x has L={x.L}, model has L={model.L}")
    for name, size in x.kernel.inputs:
        if model.joint.size_of(name) != size:
            raise AlphabetMismatchError(
                f"x kernel input {name!r} size {size} != model size {model.joint.size_of(name)}"
            )


def build_full_joint(
    model: SourceModel, gamma: AuxSystem, x: Optional[XChannel] = None
) -> JointPmf:
    """Joint law of (sources, W, T, U, Z[, X]) under the system's factorization.

    (W, T) is independent of the sources, each U_l is drawn from
    (Y_l, W, T), Z from (U, Y_{L+1}, T), and, when ``x`` is given, X is drawn
    from the sources alone so that X is conditionally independent of
    (U, Z, W, T) given the sources (the unique such coupling).  Refused over
    the table cap before any table is made.
    """
    kernels = _kernels(model, gamma, x)
    cells = model.joint.probs.size * gamma.wt_pmf.probs.size
    _refuse_over_cap(cells * math.prod(k.output[1] for k in kernels), "dense joint")
    joint = model.joint.product(gamma.wt_pmf)
    for kernel in kernels:
        joint = joint.extend(kernel)
    return joint


def _kernels(model: SourceModel, gamma: AuxSystem, x: Optional[XChannel]) -> tuple[Channel, ...]:
    """The kernels extending sources x (W, T) to the system's joint, in
    order, once their alphabets are checked against the model."""
    _check_alphabets(model, gamma)
    if x is not None:
        _check_x(model, x)
    return gamma.encoder_kernels + (gamma.decoder_kernel,) + ((x.kernel,) if x is not None else ())


def _support_is_smaller(start: JointPmf) -> bool:
    """Whether the nonzero cells of ``start``, one code per variable plus a
    mass each, take less memory than its dense table.  Extending by a
    kernel never raises the nonzero fraction, so a start that fails this
    loses nothing by the dense build."""
    row_bytes = len(start.variables) * _code_dtype(start.shape).itemsize + 8
    return np.count_nonzero(start.probs) * row_bytes < start.probs.size * 8


def _oracle(start: JointPmf, kernels: tuple[Channel, ...]) -> EntropyOracle:
    """One entropy oracle over ``start`` extended by ``kernels`` in order.

    Its root is the joint's support, built by multiplying only the positive
    kernel entries in, when that is smaller than the dense table
    (``_support_is_smaller``); otherwise it is the dense joint itself.  Either
    root is refused over the table cap before it is built.  The support has
    at most its start cells times every output alphabet size cells, and only
    a bound over the cap is refined: a kernel whose inputs all lie in
    ``start`` splits each start cell into the positive entries of its row,
    and any other into at most (for a deterministic kernel, exactly) the
    largest positive count of any of its rows.
    """
    outputs = math.prod(k.output[1] for k in kernels)
    if not _support_is_smaller(start):
        _refuse_over_cap(start.probs.size * outputs, "dense joint")
        root = start
    else:
        root = _Support.of(start)
        del start  # the dense start is not needed once its support is built
        cells = root.rows * outputs
        if cells > _MAX_TABLE_CELLS:
            rows, widest = np.ones(root.rows), 1  # floats: exact below 2^53, with no int64 overflow
            for k in kernels:
                if set(n for n, _ in k.inputs) <= set(root.names):
                    rows *= np.count_nonzero(k.rows, axis=1)[root.keys(n for n, _ in k.inputs)[0]]
                else:
                    widest *= int(np.count_nonzero(k.rows, axis=1).max())
            cells = int(rows.sum() * widest)
        _refuse_over_cap(cells, "joint's support")
    for kernel in kernels:
        root = root.extend(kernel)
    return EntropyOracle(root)


def _system_oracle(model: SourceModel, gamma: AuxSystem, x: Optional[XChannel]) -> EntropyOracle:
    """One entropy oracle over the joint of ``build_full_joint`` (``_oracle``)."""
    return _oracle(model.joint.product(gamma.wt_pmf), _kernels(model, gamma, x))


def gamma_class_residuals(joint: JointPmf, L: int, cls: str) -> MarkovReport:
    """Markov residuals of a prebuilt joint against one of the three classes.

    ``cls`` is ``"outer"`` (conditions with W), ``"bt_inner"`` or
    ``"bt_outer"`` (conditions on (U, Z, T) only; W, if present in the joint,
    is simply ignored, which is the same as marginalizing it out).  Exists to
    validate hand-entered or optimizer-produced systems; kernel-built joints
    pass by construction.
    """
    return _class_residuals(EntropyOracle(joint), L, cls)


def _class_residuals(oracle: EntropyOracle, L: int, cls: str) -> MarkovReport:
    """``gamma_class_residuals`` read from an oracle over the joint."""
    if cls not in GAMMA_CLASSES:
        raise ValueError(f"cls must be one of {GAMMA_CLASSES}, got {cls!r}")
    sources = list(source_names(L))
    side = f"Y{L + 1}"
    us = list(encoder_names(L))
    shared = ["W", "T"] if cls == "outer" else ["T"]
    residuals = []
    residuals.append(
        (
            "shared_randomness_independent_of_sources",
            oracle.cmi(shared, sources),
        )
    )
    for l in range(1, L + 1):
        others = [f"Y{i}" for i in range(L + 2) if i != l]
        if cls in ("outer", "bt_inner"):
            others = others + [u for u in us if u != f"U{l}"]
        residuals.append(
            (
                f"encoder_{l}_markov",
                oracle.cmi([f"U{l}"], others, [f"Y{l}"] + shared),
            )
        )
    left = [f"Y{i}" for i in range(L + 1)] + (["W"] if cls == "outer" else [])
    residuals.append(
        (
            "decoder_markov",
            oracle.cmi(left, ["Z"], us + [side, "T"]),
        )
    )
    return MarkovReport(tuple(residuals))


def check_gamma_class(model: SourceModel, gamma: AuxSystem, cls: str) -> MarkovReport:
    """Markov report of a kernel-built system against class ``cls``, read
    from the evaluators' oracle over its joint (``_system_oracle``)."""
    return _class_residuals(_system_oracle(model, gamma, None), model.L, cls)


def chi_residual(joint: JointPmf, L: int) -> MarkovReport:
    """Conditional-independence residual of a joint that already contains X."""
    return _chi_residual(EntropyOracle(joint), L)


def _chi_residual(oracle: EntropyOracle, L: int) -> MarkovReport:
    """``chi_residual`` read from an oracle over a joint that contains X."""
    total = 0.0
    for l in range(2, L + 1):
        total += oracle.cmi([f"Y{l}"], [f"Y{i}" for i in range(1, l)], ["X", f"Y{L + 1}"])
    return MarkovReport((("conditional_independence_given_x", total),))


def check_chi(model: SourceModel, x: XChannel) -> MarkovReport:
    """Check that Y1..YL are conditionally independent given (X, side info)."""
    _check_x(model, x)
    return _chi_residual(_oracle(model.joint, (x.kernel,)), model.L)


def expected_distortions(model: SourceModel, gamma: AuxSystem) -> tuple[float, ...]:
    """Exact E[d_k(Y0, Y, Y_{L+1}, Z_k)] for every k, read from the
    evaluators' oracle over the system's joint."""
    names = source_names(model.L) + ("Z",)
    return _distortions(model, _system_oracle(model, gamma, None).grouped([names]))


def _distortions(model: SourceModel, table: np.ndarray) -> tuple[float, ...]:
    """Every E[d_k] from ``table``, the (sources, Z) marginal row-major in any shape."""
    # Split the composite Z axis into one axis per reproduction variable.
    table = table.reshape(model.joint.shape + model.reproduction_sizes)
    n_src = len(source_names(model.L))
    out = []
    for k in range(model.K):
        axes = tuple(n_src + j for j in range(model.K) if j != k)
        pk = table.sum(axis=axes) if axes else table
        out.append(float((pk * model.distortions[k]).sum()))
    return tuple(out)


def expected_distortion(model: SourceModel, gamma: AuxSystem, k: int) -> float:
    """Exact expected distortion for measure ``k`` (0-based)."""
    if not 0 <= k < model.K:
        raise IndexError(f"distortion index {k} out of range for K={model.K}")
    return expected_distortions(model, gamma)[k]


# ---------------------------------------------------------------------------
# X-channel helpers
# ---------------------------------------------------------------------------


def x_channel_from_sources(model: SourceModel, names: Iterable[str]) -> XChannel:
    """Deterministic X copying the named source variables (product-encoded).

    ``x_channel_from_sources(model, ("Y0",))`` gives X = Y0;
    ``x_channel_from_sources(model, ("Y1", "Y2"))`` gives X = (Y1, Y2).
    """
    names = tuple(names)
    src = source_names(model.L)
    for n in names:
        if n not in src:
            raise VariableError(f"{n!r} is not a source variable of this model")
    if not names:
        raise VariableError("names must be nonempty; use x_channel_trivial for constant X")
    inputs = tuple((n, model.joint.size_of(n)) for n in src)
    sizes = tuple(model.joint.size_of(n) for n in names)
    x_size = int(np.prod(sizes, dtype=np.int64))

    def index(*grid):
        return np.ravel_multi_index([grid[src.index(n)] for n in names], sizes)

    return XChannel(Channel._indexed(inputs, ("X", x_size), index))


def x_channel_trivial(model: SourceModel) -> XChannel:
    """Deterministic (constant) X; lies in the admissible class whenever the
    observations are independent given the side information."""
    inputs = tuple((n, model.joint.size_of(n)) for n in source_names(model.L))
    return XChannel(Channel._indexed(inputs, ("X", 1), lambda *grid: 0))


def x_channel_full_observation(model: SourceModel) -> XChannel:
    """X = (Y1, ..., YL); always admissible."""
    return x_channel_from_sources(model, tuple(f"Y{l}" for l in range(1, model.L + 1)))


# ---------------------------------------------------------------------------
# Casebook
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CasebookInstance:
    model: SourceModel
    gamma: AuxSystem
    x: Optional[XChannel]


def _uniform_wt(w_size: int, t_size: int) -> JointPmf:
    w = np.full(w_size, 1.0 / w_size)
    t = np.full(t_size, 1.0 / t_size)
    return JointPmf((("W", w_size), ("T", t_size)), np.outer(w, t).reshape(-1))


def _toy_model() -> SourceModel:
    # Four i.i.d. uniform bits grouped as Y1 = (Y11, Y12), Y2 = (Y21, Y22),
    # each pair encoded as 2*y_first + y_second; trivial Y0 and side info.
    joint = JointPmf(
        (("Y0", 1), ("Y1", 4), ("Y2", 4), ("Y3", 1)),
        np.full(16, 1.0 / 16.0),
    )
    # Guess either the first or the second coordinate of both observations:
    # z = (za, zb) encoded 2*za + zb; distortion 0 iff (za, zb) equals
    # (y11, y21) or (y12, y22).
    y1, y2, z = np.indices((4, 4, 4), sparse=True)
    za, zb = z >> 1, z & 1
    hit = (za == y1 >> 1) & (zb == y2 >> 1) | (za == y1 & 1) & (zb == y2 & 1)
    d = np.where(hit, 0.0, 1.0).reshape(1, 4, 4, 1, 4)
    return SourceModel(2, 1, joint, (d,), (4,))


def _toy_gamma(fold_w_into_t: bool) -> AuxSystem:
    # U_l = the W-th coordinate of Y_l, with the coordinate selector carried
    # either by W (outer-class system) or by T (Berger-Tung inner system).
    if fold_w_into_t:
        wt = _uniform_wt(1, 2)
        w_size, t_size = 1, 2
    else:
        wt = _uniform_wt(2, 1)
        w_size, t_size = 2, 1

    def pick(y, w, t):
        return np.where((t if fold_w_into_t else w) == 0, (y >> 1) & 1, y & 1)

    encoders = tuple(
        Channel._indexed(((f"Y{l}", 4), ("W", w_size), ("T", t_size)), (f"U{l}", 2), pick)
        for l in (1, 2)
    )
    decoder = Channel._indexed(
        (("U1", 2), ("U2", 2), ("Y3", 1), ("T", t_size)), ("Z", 4), lambda u1, u2, *_: 2 * u1 + u2
    )
    return AuxSystem(wt, encoders, decoder)


# Symbol order for ternary {-1, 0, +1} variables: index = value + 1.
# Binary +/-1 variables use index 0 <-> -1, index 1 <-> +1.


def _erasure_model(p: float, L: int, lam: float) -> SourceModel:
    if lam <= 0.0:
        raise ValueError(f"need lambda > 0, got {lam}")
    y0 = np.array([0.5, 0.5])
    joint = JointPmf((("Y0", 2),), y0)
    for l in range(1, L + 1):
        # Y_l = N_l * Y0 with P(N=0) = p: observation erased w.p. p.
        rows = np.zeros((2, 3))
        rows[0, 1] = p
        rows[0, 0] = 1.0 - p  # Y0 = -1 -> Y_l = -1
        rows[1, 1] = p
        rows[1, 2] = 1.0 - p  # Y0 = +1 -> Y_l = +1
        joint = joint.extend(Channel((("Y0", 2),), (f"Y{l}", 3), rows))
    joint = joint.product(JointPmf(((f"Y{L + 1}", 1),), np.array([1.0])))
    # Erasure distortion with finite error penalty lambda:
    # 0 if z = y0, 1 if z = 0, lambda otherwise; it depends on (y0, z) alone.
    y0, z = np.ogrid[-1:2:2, -1:2]
    d = np.where(z == y0, 0.0, np.where(z == 0, 1.0, lam))
    d = np.broadcast_to(d.reshape((2,) + (1,) * (L + 1) + (3,)), joint.shape + (3,))
    return SourceModel(L, 1, joint, (d,), (3,))


def _erasure_gamma(p: float, L: int, D: float) -> AuxSystem:
    # Identically distributed binary erasure test channels: U_l = Y_l * N~_l
    # with P(N~ = 0) = (D^{1/L} - p) / (1 - p), and Z = sgn(sum U_l).
    q = (D ** (1.0 / L) - p) / (1.0 - p)
    wt = _uniform_wt(1, 1)
    rows = np.zeros((3, 3))
    rows[0, 0] = 1.0 - q
    rows[0, 1] = q  # y = -1
    rows[1, 1] = 1.0  # y = 0 (already erased)
    rows[2, 2] = 1.0 - q
    rows[2, 1] = q  # y = +1
    encoders = tuple(
        Channel(((f"Y{l}", 3), ("W", 1), ("T", 1)), (f"U{l}", 3), rows)
        for l in range(1, L + 1)
    )
    u_inputs = tuple((f"U{l}", 3) for l in range(1, L + 1))
    decoder = Channel._indexed(  # each U_l's value is its index - 1
        u_inputs + ((f"Y{L + 1}", 1), ("T", 1)), ("Z", 3), lambda *u: 1 + np.sign(sum(u[:L]) - L)
    )
    return AuxSystem(wt, encoders, decoder)


def _appendix_c_gamma() -> AuxSystem:
    # (W1, W2) with joint [[1/5, 2/5], [2/5, 0]], encoded W = 2*w1 + w2;
    # U_l = Y_l * W_l and Z = sgn(U1 + U2).
    w_pmf = np.array([1.0 / 5.0, 2.0 / 5.0, 2.0 / 5.0, 0.0])
    wt = JointPmf((("W", 4), ("T", 1)), w_pmf)
    encoders = tuple(
        Channel._indexed(
            ((f"Y{l}", 3), ("W", 4), ("T", 1)),
            (f"U{l}", 3),
            lambda y, w, t, bit=2 - l: (y - 1) * ((w >> bit) & 1) + 1,  # W_l is bit 2 - l of W
        )
        for l in (1, 2)
    )
    decoder = Channel._indexed(
        (("U1", 3), ("U2", 3), ("Y3", 1), ("T", 1)),
        ("Z", 3),
        lambda u1, u2, *_: 1 + np.sign(u1 + u2 - 2),
    )
    return AuxSystem(wt, encoders, decoder)


def casebook(
    name: str,
    p: float = 0.5,
    L: int = 2,
    D: float = 0.6,
    lam: float = 1e6,
) -> CasebookInstance:
    """Concrete worked instances used throughout the test and demo suites.

    * ``"toy"``: four i.i.d. uniform bits, coordinate-guessing distortion, and
      the randomized coordinate-selector system (nondeterministic W);
    * ``"toy_bt_gamma"``: same model with the selector folded into T, which
      lies in the Berger-Tung inner class;
    * ``"appendix_c"``: binary erasure CEO instance with p = 1/2, L = 2 and
      the correlated (W1, W2) construction exhibiting outer-bound looseness;
    * ``"erasure"``: binary erasure CEO instance with the symmetric erasure
      test channels hitting erasure rate D exactly and never erring
      (takes p, L, D, lam; requires L >= 1 and p^L <= D <= 1).
    """
    if name in ("toy", "toy_bt_gamma"):
        model = _toy_model()
        return CasebookInstance(model, _toy_gamma(name == "toy_bt_gamma"), x_channel_trivial(model))
    if name == "appendix_c":
        model = _erasure_model(0.5, 2, lam)
        return CasebookInstance(model, _appendix_c_gamma(), x_channel_from_sources(model, ("Y0",)))
    if name == "erasure":
        if not 0.0 < p < 1.0:
            raise ValueError(f"need 0 < p < 1, got p={p}")
        if L < 1:
            raise ValueError(f"need L >= 1, got L={L}")
        # The distortion table has 2 * 3^L * 3 cells.  L is compared with the
        # largest L the cap admits before any power is taken, and the count
        # is written out only while it is short.
        top = int(math.log(_MAX_TABLE_CELLS / 6, 3))
        if L > top:
            cells = f"{6 * 3**L:,}" if L <= 2 * top else f"6 * 3^{L:,}"
            raise ValueError(
                f"the erasure casebook's distortion table would have {cells} cells at L = {L:,}, "
                f"over the cap of {_MAX_TABLE_CELLS:,}; L must be at most {top}"
            )
        if not p**L <= D <= 1.0:
            raise ValueError(f"need p^L <= D <= 1, got D={D} with p^L={p**L}")
        model = _erasure_model(p, L, lam)
        return CasebookInstance(model, _erasure_gamma(p, L, D), x_channel_from_sources(model, ("Y0",)))
    raise ValueError(f"unknown casebook instance {name!r}")
