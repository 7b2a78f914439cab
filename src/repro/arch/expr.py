"""Logic-expression AST, optimizer and compiler for the bulk engines.

Multi-term bulk-bitwise queries (bitmap indexes, set algebra, masked
predicates) are written as expressions over named columns::

    hits = parse("(c0 & c1 & ~c2) | (c3 & c4 & c5)")
    program = compile_for(engine, hits)
    result = program.run(engine, columns)

Naive op chaining pays hidden flag-materialization NOTs whenever the
complement flags of two operands disagree (the engines charge one
materialized NOT per mismatch), and recomputes repeated sub-terms.  The
compiler removes both costs:

* **canonicalization** — the AST is lowered to a hash-consed
  and-inverter graph (AIG): NOTs become edge attributes (double-NOT
  elimination is inherent), OR/NAND/NOR are De-Morganed onto the native
  AND/MIN primitive, constants fold, idempotent/contradictory terms
  collapse, and structurally equal sub-expressions share one node
  (common-subexpression elimination).  Commutative operands sort by a
  content key, so ``a & b`` and ``b & a`` compile — and cache — alike.
* **parity planning** — a dynamic program assigns each node the
  complement-flag parity that minimizes materialized NOTs, exploiting
  the technologies' flag algebra (FeRAM's inverting MIN flips parity
  per level, DRAM's MAJ preserves it).  Mismatches that cannot be
  planned away are steered to the cheaper operand.
* **liveness** — intermediate vectors are freed immediately after their
  last use, so a compiled query's row footprint stays at the live-set
  peak instead of the term count.

:func:`naive_run` executes the un-optimized AST through the engine's
compound ops exactly as handwritten kernels chain them, providing the
before/after primitive counts quoted in the benchmarks.
"""

from __future__ import annotations

import re
from collections.abc import Mapping

import numpy as np

from repro.arch.bank import BitVector
from repro.arch.commands import CommandType, Stats
from repro.arch.engine import BulkEngine
from repro.arch.spec import DRAM_8GB, StagingPolicy
from repro.errors import QueryError

__all__ = [
    "Expr", "Col", "Const", "Not", "And", "Or", "Nand", "Nor", "Xor",
    "Xnor", "AndNot", "Maj", "Select", "Match", "parse",
    "canonical_key", "CompiledQuery", "VectorProgram", "compile_expr",
    "compile_for", "naive_run", "native_primitives",
]


# ----------------------------------------------------------------------
# user-facing AST
# ----------------------------------------------------------------------
class Expr:
    """Base class for logic expressions over named bit columns."""

    def __and__(self, other: "Expr") -> "And":
        return And(self, other)

    def __or__(self, other: "Expr") -> "Or":
        return Or(self, other)

    def __xor__(self, other: "Expr") -> "Xor":
        return Xor(self, other)

    def __invert__(self) -> "Expr":
        return Not(self)

    def cols(self) -> tuple[str, ...]:
        """Referenced column names, in first-appearance order."""
        seen: dict[str, None] = {}
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop(0)
            if isinstance(node, Col):
                seen.setdefault(node.name)
            else:
                stack = list(node.children()) + stack
        return tuple(seen)

    def children(self) -> tuple["Expr", ...]:
        return ()

    def __repr__(self) -> str:
        return str(self)


class Col(Expr):
    """A named bit column (leaf)."""

    def __init__(self, name: str) -> None:
        if not re.fullmatch(r"[A-Za-z_]\w*", name):
            raise QueryError(f"invalid column name {name!r}")
        self.name = name

    def __str__(self) -> str:
        return self.name


class Const(Expr):
    """The all-0s or all-1s vector."""

    def __init__(self, bit: int) -> None:
        if bit not in (0, 1):
            raise QueryError("constant must be 0 or 1")
        self.bit = bit

    def __str__(self) -> str:
        return str(self.bit)


class Not(Expr):
    def __init__(self, x: Expr) -> None:
        self.x = x

    def children(self) -> tuple[Expr, ...]:
        return (self.x,)

    def __str__(self) -> str:
        return f"~{self.x}"


class _Nary(Expr):
    op = "?"

    def __init__(self, *xs: Expr) -> None:
        if len(xs) < 2:
            raise QueryError(
                f"{type(self).__name__} needs at least two operands")
        self.xs = tuple(xs)

    def children(self) -> tuple[Expr, ...]:
        return self.xs

    def __str__(self) -> str:
        return "(" + f" {self.op} ".join(map(str, self.xs)) + ")"


class And(_Nary):
    op = "&"


class Or(_Nary):
    op = "|"


class Xor(_Nary):
    op = "^"


class Nand(_Nary):
    op = "&"

    def __str__(self) -> str:
        return "~" + super().__str__()


class Nor(_Nary):
    op = "|"

    def __str__(self) -> str:
        return "~" + super().__str__()


class Xnor(_Nary):
    op = "^"

    def __str__(self) -> str:
        return "~" + super().__str__()


class AndNot(Expr):
    """a AND NOT b (set difference)."""

    def __init__(self, a: Expr, b: Expr) -> None:
        self.a, self.b = a, b

    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)

    def __str__(self) -> str:
        return f"({self.a} & ~{self.b})"


class Maj(Expr):
    """Three-input majority (the native triple-activation)."""

    def __init__(self, a: Expr, b: Expr, c: Expr) -> None:
        self.a, self.b, self.c = a, b, c

    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"maj({self.a}, {self.b}, {self.c})"


class Select(Expr):
    """(mask AND a) OR (NOT mask AND b) — bulk multiplexer."""

    def __init__(self, mask: Expr, a: Expr, b: Expr) -> None:
        self.mask, self.a, self.b = mask, a, b

    def children(self) -> tuple[Expr, ...]:
        return (self.mask, self.a, self.b)

    def __str__(self) -> str:
        return f"sel({self.mask}, {self.a}, {self.b})"


def _parse_key_bits(value, n: int, *, what: str = "key",
                    allow_x: bool = True) -> tuple[tuple, tuple]:
    """Normalize a key/mask literal to ``(bits, care)`` tuples.

    Accepts a ``0b``-style string (``x`` marks a don't-care position
    when ``allow_x``) or any bit sequence (``None`` = don't care).
    The literal maps positionally: first element ↔ first column.
    """
    bits: list[int] = []
    care: list[int] = []
    if isinstance(value, str):
        text = value[2:] if value[:2].lower() == "0b" else value
        for ch in text:
            if ch in "01":
                bits.append(int(ch))
                care.append(1)
            elif ch in "xX" and allow_x:
                bits.append(0)
                care.append(0)
            else:
                raise QueryError(
                    f"bad {what} literal character {ch!r}")
    else:
        try:
            items = list(value)
        except TypeError:
            raise QueryError(
                f"match() {what} must be a string or bit sequence, "
                f"got {type(value).__name__}") from None
        for item in items:
            if item is None:
                if not allow_x:
                    raise QueryError(
                        f"match() {what} does not take don't-cares")
                bits.append(0)
                care.append(0)
                continue
            bit = int(item)
            if bit not in (0, 1):
                raise QueryError(
                    f"match() {what} bit must be 0 or 1, got {item!r}")
            bits.append(bit)
            care.append(1)
    if len(bits) != n:
        raise QueryError(
            f"match() {what} has {len(bits)} bits for {n} columns")
    return tuple(bits), tuple(care)


class Match(Expr):
    """CAM search: a row hits when every cared column equals its key bit.

    ``key`` maps positionally onto the columns (first column ↔ leftmost
    literal bit) and may be a ``0b``-style string with ``x`` don't-care
    positions (``match(a, b, c, key="1x0")``) or a bit sequence with
    ``None`` for don't-cares.  ``mask`` optionally selects the compared
    positions (1 = compare); it intersects with the key's own ``x``
    positions.  An all-don't-care key matches every row.
    """

    def __init__(self, *xs: Expr, key, mask=None) -> None:
        if not xs:
            raise QueryError("match() needs at least one column")
        self.xs = tuple(xs)
        bits, care = _parse_key_bits(key, len(xs), what="key")
        if mask is not None:
            mbits, _ = _parse_key_bits(mask, len(xs), what="mask",
                                       allow_x=False)
            care = tuple(c & m for c, m in zip(care, mbits))
        # Canonical form: key bits at don't-care positions read as 0.
        self.key = tuple(b & c for b, c in zip(bits, care))
        self.mask = care

    def children(self) -> tuple[Expr, ...]:
        return self.xs

    def __str__(self) -> str:
        literal = "".join("x" if not c else str(b)
                          for b, c in zip(self.key, self.mask))
        return (f"match({', '.join(map(str, self.xs))}, 0b{literal})")

    def as_logic(self) -> Expr:
        """Equivalent plain-logic form: AND over cared (col XNOR bit)."""
        lits = [x if b else Not(x)
                for x, b, c in zip(self.xs, self.key, self.mask) if c]
        if not lits:
            return Const(1)
        if len(lits) == 1:
            return lits[0]
        return And(*lits)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_]\w*)|(?P<key>0b[01xX]+)"
                    r"|(?P<const>[01])|(?P<op>[&|^~!(),]))")

_KEYWORD_OPS = {"and": "&", "or": "|", "xor": "^", "not": "~"}
_FUNCTIONS = {
    "maj": (Maj, 3), "majority": (Maj, 3),
    "sel": (Select, 3), "select": (Select, 3),
    "nand": (Nand, None), "nor": (Nor, None), "xnor": (Xnor, None),
    "andnot": (AndNot, 2),
}


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise QueryError(
                    f"bad character {text[pos:].strip()[0]!r} in query")
            break
        pos = match.end()
        tokens.append(match.group("name") or match.group("key")
                      or match.group("const") or match.group("op"))
    return tokens


class _Parser:
    """Precedence-climbing parser: ``|`` < ``^`` < ``&`` < ``~``."""

    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        token = self.peek()
        if token is None:
            raise QueryError("unexpected end of query")
        if expected is not None and token != expected:
            raise QueryError(f"expected {expected!r}, got {token!r}")
        self.pos += 1
        return token

    def _norm(self, token: str | None) -> str | None:
        if token is None:
            return None
        return _KEYWORD_OPS.get(token.lower(), token)

    def parse(self) -> Expr:
        expr = self.parse_or()
        if self.peek() is not None:
            raise QueryError(f"trailing input at {self.peek()!r}")
        return expr

    def _binary(self, symbol: str, parse_next, cls) -> Expr:
        parts = [parse_next()]
        while self._norm(self.peek()) == symbol:
            self.take()
            parts.append(parse_next())
        return parts[0] if len(parts) == 1 else cls(*parts)

    def parse_or(self) -> Expr:
        return self._binary("|", self.parse_xor, Or)

    def parse_xor(self) -> Expr:
        return self._binary("^", self.parse_and, Xor)

    def parse_and(self) -> Expr:
        return self._binary("&", self.parse_unary, And)

    def parse_unary(self) -> Expr:
        if self._norm(self.peek()) in ("~", "!"):
            self.take()
            return Not(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        token = self.take()
        if token == "(":
            expr = self.parse_or()
            self.take(")")
            return expr
        if token in ("0", "1"):
            return Const(int(token))
        if token.startswith("0b"):
            raise QueryError(
                f"key literal {token!r} is only valid inside match()")
        lowered = token.lower()
        if lowered == "match" and self.peek() == "(":
            return self._match_call()
        if self.peek() == "(" and (lowered in _FUNCTIONS
                                   or lowered in ("and", "or", "xor")):
            args = self._arguments()
            if lowered in ("and", "or", "xor"):
                cls = {"and": And, "or": Or, "xor": Xor}[lowered]
                return cls(*args)
            cls, arity = _FUNCTIONS[lowered]
            if arity is not None and len(args) != arity:
                raise QueryError(
                    f"{lowered}() takes {arity} arguments, got {len(args)}")
            return cls(*args)
        if lowered in _KEYWORD_OPS or lowered in _FUNCTIONS:
            raise QueryError(f"misplaced keyword {token!r}")
        return Col(token)

    def _arguments(self) -> list[Expr]:
        self.take("(")
        args = [self.parse_or()]
        while self.peek() == ",":
            self.take()
            args.append(self.parse_or())
        self.take(")")
        return args

    def _match_call(self) -> Expr:
        """``match(cols..., 0b<key>[, 0b<mask>])`` — key/mask literals
        trail the column expressions; ``x`` in the key is a don't-care.
        """
        self.take("(")
        cols: list[Expr] = []
        literals: list[str] = []
        while True:
            token = self.peek()
            if token is not None and token.startswith("0b"):
                literals.append(self.take())
            elif literals:
                raise QueryError(
                    "match() key/mask literals must come last")
            else:
                cols.append(self.parse_or())
            if self.peek() == ",":
                self.take()
                continue
            break
        self.take(")")
        if not literals:
            raise QueryError(
                "match() needs a key literal like 0b1x0")
        if len(literals) > 2:
            raise QueryError(
                "match() takes one key and at most one mask literal")
        mask = literals[1] if len(literals) == 2 else None
        return Match(*cols, key=literals[0], mask=mask)


def parse(text: str) -> Expr:
    """Parse a query string into an :class:`Expr`.

    Syntax: columns are identifiers; operators ``~ & ^ |`` (or the
    keywords ``not/and/xor/or``) with conventional precedence;
    functions ``maj(a,b,c)``, ``sel(m,a,b)``, ``nand(...)``,
    ``nor(...)``, ``xnor(...)``, ``andnot(a,b)``; constants ``0``/``1``;
    CAM search ``match(cols..., 0b<key>[, 0b<mask>])`` where the key
    maps left-to-right onto the columns and ``x`` marks a don't-care.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise QueryError("empty query")
    return _Parser(tokens).parse()


def _as_expr(expr: "Expr | str") -> Expr:
    return parse(expr) if isinstance(expr, str) else expr


# ----------------------------------------------------------------------
# AIG lowering with structural hashing
# ----------------------------------------------------------------------
# A reference is ``(node_index << 1) | negated``; node 0 is the constant
# TRUE, so TRUE = 0 and FALSE = 1.
_TRUE = 0
_FALSE = 1


#: content keys longer than this are replaced by a digest.  Keys stay
#: human-readable for ordinary queries; deep programs (a CRC feedback
#: chain re-reads its own outputs, so the *tree* expansion of the
#: shared DAG grows exponentially) would otherwise spend quadratic-plus
#: time and memory materializing structural strings.
_KEY_CAP = 96


class _Aig:
    """Hash-consed and-inverter graph with XOR and MAJ extension nodes."""

    def __init__(self) -> None:
        self.nodes: list[tuple] = [("true",)]
        self.keys: list[str] = ["1"]
        self._table: dict[tuple, int] = {("true",): 0}
        self.col_order: list[str] = []

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _cap_key(key: str) -> str:
        """Bound a content key's length, preserving content equality.

        Equal structures build equal strings and therefore equal
        digests; children are already capped, so every key is computed
        in O(1) regardless of graph depth.
        """
        if len(key) <= _KEY_CAP:
            return key
        import hashlib
        return "#" + hashlib.sha256(key.encode()).hexdigest()

    def ref_key(self, ref: int) -> str:
        return ("!" if ref & 1 else "") + self.keys[ref >> 1]

    def _intern(self, node: tuple, key: str) -> int:
        idx = self._table.get(node)
        if idx is None:
            idx = len(self.nodes)
            self.nodes.append(node)
            self.keys.append(key)
            self._table[node] = idx
        return idx << 1

    # -- constructors --------------------------------------------------
    def col(self, name: str) -> int:
        if name not in self.col_order:
            self.col_order.append(name)
        return self._intern(("col", name), f"c:{name}")

    def and_(self, x: int, y: int) -> int:
        if x == _TRUE:
            return y
        if y == _TRUE:
            return x
        if x == _FALSE or y == _FALSE:
            return _FALSE
        if x == y:
            return x
        if x == y ^ 1:
            return _FALSE
        x, y = sorted((x, y), key=self.ref_key)
        key = self._cap_key(f"&({self.ref_key(x)},{self.ref_key(y)})")
        return self._intern(("and", x, y), key)

    def or_(self, x: int, y: int) -> int:
        return self.and_(x ^ 1, y ^ 1) ^ 1

    def xor(self, x: int, y: int) -> int:
        neg = (x & 1) ^ (y & 1)
        xp, yp = x & ~1, y & ~1
        if xp == yp:
            return _TRUE if neg else _FALSE
        if xp == _TRUE:           # XOR with constant 1 inverts
            return yp ^ 1 ^ neg
        if yp == _TRUE:
            return xp ^ 1 ^ neg
        xp, yp = sorted((xp, yp), key=self.ref_key)
        key = self._cap_key(f"^({self.ref_key(xp)},{self.ref_key(yp)})")
        return self._intern(("xor", xp, yp), key) ^ neg

    def maj(self, x: int, y: int, z: int) -> int:
        # Constant folding: MAJ(1, y, z) = y|z and MAJ(0, y, z) = y&z.
        for ref, rest in ((x, (y, z)), (y, (x, z)), (z, (x, y))):
            if ref == _TRUE:
                return self.or_(*rest)
            if ref == _FALSE:
                return self.and_(*rest)
        # Duplicate / contradictory operand collapse.
        for a, b, c in ((x, y, z), (x, z, y), (y, z, x)):
            if a == b:
                return a
            if a == b ^ 1:
                return c
        # Self-duality: normalize to at most one negated operand.
        neg = 0
        if (x & 1) + (y & 1) + (z & 1) >= 2:
            x, y, z = x ^ 1, y ^ 1, z ^ 1
            neg = 1
        x, y, z = sorted((x, y, z), key=self.ref_key)
        key = self._cap_key(f"m({self.ref_key(x)},{self.ref_key(y)},"
                            f"{self.ref_key(z)})")
        return self._intern(("maj", x, y, z), key) ^ neg

    # -- lowering ------------------------------------------------------
    def _balanced(self, refs: list[int], fn) -> int:
        """Pairwise (balanced) reduction keeps flag parities aligned."""
        while len(refs) > 1:
            nxt = [fn(refs[i], refs[i + 1])
                   for i in range(0, len(refs) - 1, 2)]
            if len(refs) % 2:
                nxt.append(refs[-1])
            refs = nxt
        return refs[0]

    def lower(self, expr: Expr,
              env: Mapping[str, int] | None = None) -> int:
        """Lower an expression to an AIG reference.

        ``env`` (the :class:`~repro.arch.program.Program` layer's
        statement environment) maps already-assigned names to their AIG
        references: a :class:`Col` whose name is bound resolves to the
        bound sub-graph instead of a fresh column leaf, which is what
        makes cross-statement common-subexpression elimination fall out
        of the ordinary hash-consing.
        """
        if isinstance(expr, Col):
            if env is not None:
                ref = env.get(expr.name)
                if ref is not None:
                    return ref
            return self.col(expr.name)
        if isinstance(expr, Const):
            return _TRUE if expr.bit else _FALSE
        if isinstance(expr, Not):
            return self.lower(expr.x, env) ^ 1
        if isinstance(expr, (And, Nand)):
            ref = self._balanced([self.lower(x, env) for x in expr.xs],
                                 self.and_)
            return ref ^ (1 if isinstance(expr, Nand) else 0)
        if isinstance(expr, (Or, Nor)):
            ref = self._balanced([self.lower(x, env) for x in expr.xs],
                                 self.or_)
            return ref ^ (1 if isinstance(expr, Nor) else 0)
        if isinstance(expr, (Xor, Xnor)):
            ref = self._balanced([self.lower(x, env) for x in expr.xs],
                                 self.xor)
            return ref ^ (1 if isinstance(expr, Xnor) else 0)
        if isinstance(expr, AndNot):
            return self.and_(self.lower(expr.a, env),
                             self.lower(expr.b, env) ^ 1)
        if isinstance(expr, Maj):
            return self.maj(self.lower(expr.a, env),
                            self.lower(expr.b, env),
                            self.lower(expr.c, env))
        if isinstance(expr, Select):
            mask = self.lower(expr.mask, env)
            return self.or_(self.and_(mask, self.lower(expr.a, env)),
                            self.and_(self.lower(expr.b, env), mask ^ 1))
        if isinstance(expr, Match):
            # XNOR against a constant key bit degenerates to the column
            # or its complement, so a CAM match is an AND of (possibly
            # negated) literals over the cared positions.
            refs = [self.lower(x, env) ^ (0 if bit else 1)
                    for x, bit, care
                    in zip(expr.xs, expr.key, expr.mask) if care]
            if not refs:
                return _TRUE
            return self._balanced(refs, self.and_)
        raise QueryError(f"cannot lower {type(expr).__name__}")


def canonical_key(expr: "Expr | str") -> str:
    """Content-determined key of the optimized expression.

    Equivalent queries — reordered commutative operands, double NOTs,
    De-Morganed forms, repeated sub-terms — share one key, which is what
    the service's result cache is keyed on.
    """
    aig = _Aig()
    root = aig.lower(_as_expr(expr))
    return aig.ref_key(root)


# ----------------------------------------------------------------------
# columnar register-machine bytecode
# ----------------------------------------------------------------------
class VectorProgram:
    """Flat register-machine bytecode for the columnar executor.

    Lowered once per :class:`CompiledQuery` from its hash-consed AIG:
    every AIG op node becomes one *step* of micro-ops over registers,
    column references and constants.  Steps carry the AIG node's
    canonical content key, so :meth:`merge` can run a batch's plans as
    one program in which a sub-expression shared by several queries is
    computed once.

    Execution is **cache-blocked**.  The bytecode is lowered once to a
    static kernel schedule over *slots* (:class:`_Schedule`): columns
    and outputs are full-width ``(n_shards, words)`` matrices, every
    other register is a tile-sized scratch slot, recycled at the last
    use of its value.  A run walks the matrices in word tiles, executes
    every kernel on the tile (one ``np.bitwise_*`` call each; numpy
    releases the GIL) and adds the tile's masked popcount to per-shard
    counters while the tile is still in cache.  Intermediates never
    take a full-size matrix, each output is written exactly once, and
    column matrices are only ever read.

    The program computes **logical values** directly (complement-flag
    edges of the AIG are folded into fused ``andn``/``nor`` micro-ops
    or explicit NOTs), which is bit-identical to the engine-replay
    path's flag algebra by construction.  Cost accounting is *not* part
    of the program — the analytic coster in
    :mod:`repro.arch.primitives` charges the plan's engine events in
    closed form.
    """

    #: micro-op names (first element of each micro-op tuple)
    OPS = ("and", "andn", "nor", "xor", "maj", "not", "copy", "const")
    #: compound micro-ops emitted only by the peephole fuser (:meth:`fuse`)
    FUSED_OPS = ("or", "nand", "xnor", "ornot", "andor", "noror", "maj4")

    def __init__(self, steps: list[tuple], n_regs: int,
                 out_reg: int | None,
                 out_regs: Mapping[str, int] | None = None, *,
                 fused: bool = False) -> None:
        #: list of (node_key | None, dst_reg, micro_ops, free_regs)
        self.steps = steps
        self.n_regs = n_regs
        #: single-expression result register (compiled queries)
        self.out_reg = out_reg
        #: named output registers (multi-statement programs)
        self.out_regs = dict(out_regs) if out_regs is not None else None
        #: True for programs produced by :meth:`fuse`
        self.fused = fused
        self._schedule: _Schedule | None = None

    # -- picklable transport ------------------------------------------
    def spec(self) -> tuple:
        """Self-contained, picklable payload describing this bytecode.

        Steps, register specs and micro-ops are pure nested tuples of
        primitives, so the spec round-trips through ``pickle`` (or a
        ``multiprocessing`` pipe) without dragging along the compiler,
        the AIG, or any numpy state.  :meth:`from_spec` rebuilds an
        equivalent program that executes bit-identically.
        """
        out_regs = None if self.out_regs is None else \
            tuple(sorted(self.out_regs.items()))
        return (tuple(tuple(step) for step in self.steps),
                int(self.n_regs), self.out_reg, out_regs,
                bool(self.fused))

    @classmethod
    def from_spec(cls, spec: tuple) -> "VectorProgram":
        """Rebuild a program from a :meth:`spec` payload."""
        steps, n_regs, out_reg, out_regs, fused = spec
        return cls([tuple(step) for step in steps], n_regs, out_reg,
                   dict(out_regs) if out_regs is not None else None,
                   fused=fused)

    # -- batch merge ----------------------------------------------------
    @classmethod
    def merge(cls, parts) -> "VectorProgram":
        """One multi-output program that runs several query programs.

        ``parts`` yields ``(name, program, colmap, scope)``: the
        single-output ``program`` becomes output ``name``, its column
        references are renamed through ``colmap``, and a step whose
        node key was already emitted under the same ``scope`` reuses
        that value instead of recomputing it.  Node keys name columns
        by their logical names, so the scope must be the namespace
        that fixes ``colmap`` (the tenant).  Registers of the merged
        program are single-assignment; it is executed, never fused.
        """
        steps: list[tuple] = []
        shared: dict[tuple, int] = {}
        out_regs: dict = {}
        n_regs = 0
        fused = True
        for name, program, colmap, scope in parts:
            if program.out_reg is None:
                raise QueryError("merge takes single-output programs")
            fused = fused and program.fused
            regs: dict[int, int] = {}
            for step in program.steps:
                key = step[0]
                hit = None if key is None else shared.get((scope, key))
                if hit is not None:
                    regs[step[1]] = hit
                    continue
                micro = []
                for op in step[2]:
                    arity = _ARITY[op[0]]
                    args = tuple(
                        ("col", colmap.get(spec[1], spec[1]))
                        if spec[0] == "col" else ("reg", regs[spec[1]])
                        for spec in op[2:2 + arity])
                    regs[op[1]] = n_regs
                    n_regs += 1
                    micro.append((op[0], regs[op[1]]) + args
                                 + tuple(op[2 + arity:]))
                steps.append((key, regs[step[1]], tuple(micro), ()))
                if key is not None:
                    shared[(scope, key)] = regs[step[1]]
            out_regs[name] = regs[program.out_reg]
        return cls(steps, n_regs, None, out_regs, fused=fused)

    # -- execution -----------------------------------------------------
    def run(self, columns: Mapping[str, np.ndarray], *,
            shape: tuple[int, ...] | None = None) -> np.ndarray:
        """Execute over packed word matrices; returns the result matrix.

        ``columns`` maps names to read-only matrices (all one shape);
        ``shape`` is required only when no column is bound.  The
        returned matrix is fresh and owned by the caller.
        """
        if self.out_reg is None:
            raise QueryError("multi-output program: use run_outputs()")
        return self.run_outputs(columns, shape=shape)[None]

    def run_outputs(self, columns: Mapping[str, np.ndarray], *,
                    shape: tuple[int, ...] | None = None,
                    out: Mapping | None = None,
                    mask: np.ndarray | None = None,
                    counts: dict | None = None) -> dict:
        """Execute in one tiled pass; returns ``{name: matrix}``.

        A single-output program's result is keyed ``None``.  ``out``
        optionally supplies each output's destination matrix (shard
        workers pass shared-memory views); other outputs get fresh
        matrices, and two output names whose values coincide in the
        optimized graph then share one matrix.  With ``mask`` (the
        store's validity mask), bits outside it are cleared in every
        output.  A ``counts`` dict receives each output's per-row
        (= per-shard) popcount, summed tile by tile.
        """
        sched = self.schedule()
        if shape is None:
            try:
                shape = next(iter(columns.values())).shape
            except StopIteration:
                raise QueryError(
                    "constant-only program needs an explicit shape"
                ) from None
        try:
            inputs = [columns[name] for name in sched.cols]
        except KeyError as exc:
            raise QueryError(f"unbound column {exc.args[0]!r}") from None
        out = out or {}
        dests = []
        results = {}
        for names in sched.outs:
            own = [out[name] for name in names if name in out]
            dests.append(own or [np.empty(shape, dtype=np.uint64)])
            for name in names:
                results[name] = out.get(name, dests[-1][0])
        tallies = None
        if counts is not None:
            tallies = [np.zeros(shape[0], dtype=np.int64)
                       for _ in sched.outs]
        sched.execute(shape, inputs, dests, mask, tallies)
        if counts is not None:
            for names, tally in zip(sched.outs, tallies):
                for name in names:
                    counts[name] = tally
        return results

    def schedule(self) -> "_Schedule":
        """The static kernel schedule (lowered on first use, cached)."""
        sched = self._schedule
        if sched is None:
            sched = self._schedule = _Schedule(self)
        return sched

    # -- peephole fusion -----------------------------------------------
    def fuse(self) -> "VectorProgram":
        """Peephole-fused copy of this program.

        A single-micro ``and``/``andn``/``nor``/``xor`` step whose
        destination is consumed exactly once by the immediately
        following step (and dies there) merges into one compound
        micro-op (``nand``/``or``/``xnor``/``ornot``/``andor``/
        ``noror``), eliminating the intermediate value and one or more
        kernels; ``maj`` is renamed ``maj4`` (the 4-kernel majority
        every program runs).  Bit-exact by construction.

        Fusion changes *how* kernels execute, never which charge
        events the plan models — analytic cost accounting is computed
        from the plan, not the bytecode.  The fused step keeps the
        consumer's node key, so batch merges still share the whole
        fused computation; the producer's intermediate value is
        simply no longer shared.
        """
        protected: set[int] = set()
        if self.out_reg is not None:
            protected.add(self.out_reg)
        if self.out_regs:
            protected.update(self.out_regs.values())

        fused_steps: list[tuple] = []
        i = 0
        while i < len(self.steps):
            step = self.steps[i]
            merged = None
            if (i + 1 < len(self.steps) and len(step[2]) == 1
                    and step[2][0][0] in ("and", "andn", "nor", "xor")
                    and step[1] not in protected):
                merged = _fuse_pair(step, self.steps[i + 1])
            if merged is not None:
                fused_steps.append(merged)
                i += 2
            else:
                fused_steps.append(step[:2] + (tuple(
                    ("maj4",) + op[1:] if op[0] == "maj" else op
                    for op in step[2]),) + step[3:4])
                i += 1
        return VectorProgram(fused_steps, self.n_regs, self.out_reg,
                             self.out_regs, fused=True)


#: operand count of each micro-op (``const`` carries a bit instead)
_ARITY = {"and": 2, "andn": 2, "nor": 2, "xor": 2, "or": 2, "nand": 2,
          "xnor": 2, "ornot": 2, "andor": 3, "noror": 3, "maj": 3,
          "maj4": 3, "not": 1, "copy": 1, "const": 0}

#: L2 bytes the scratch slots of one tile share; a schedule's tile
#: width is this budget divided by its scratch-slot count
_TILE_BUDGET = 1 << 20
#: tile widths are whole 64-byte cache lines
_TILE_ALIGN = 8

_KERNELS = {"and": np.bitwise_and, "or": np.bitwise_or,
            "xor": np.bitwise_xor, "not": np.bitwise_not,
            "copy": np.positive}
_FILL = (np.uint64(0), np.uint64(0xFFFFFFFFFFFFFFFF))


def _micro_kernels(name: str, out: int, args, temp: int) -> list[tuple]:
    """Kernel sequence ``(kernel, out, a, b)`` of one micro-op over
    values; ``temp`` is a spare value for the majority's scratch."""
    if name in ("and", "or", "xor"):
        return [(name, out, args[0], args[1])]
    if name in ("andn", "ornot"):  # args[0] op ~args[1]
        return [("not", out, args[1], None),
                ("and" if name == "andn" else "or", out, out, args[0])]
    if name in ("nor", "nand", "xnor"):
        return [(_POSITIVE[name], out, args[0], args[1]),
                ("not", out, out, None)]
    if name == "andor":  # (a | b) & c
        return [("or", out, args[0], args[1]),
                ("and", out, out, args[2])]
    if name == "noror":  # ~(a | b | c)
        return [("or", out, args[0], args[1]), ("or", out, out, args[2]),
                ("not", out, out, None)]
    if name in ("maj", "maj4"):  # ((a | b) & c) | (a & b)
        a, b, c = args
        return [("or", out, a, b), ("and", out, out, c),
                ("and", temp, a, b), ("or", out, out, temp)]
    if name in ("not", "copy"):
        return [(name, out, args[0], None)]
    if name == "const":
        return [(f"fill{args[0]}", out, None, None)]
    raise QueryError(f"unknown micro-op {name!r}")  # pragma: no cover


_POSITIVE = {"nor": "or", "nand": "and", "xnor": "xor"}


class _Schedule:
    """A program's static kernel schedule over slots.

    Slots ``[0, len(cols))`` are the bound columns, the next
    ``len(outs)`` are the outputs (full width), and the rest are
    tile-sized scratch slots.  Registers are renamed to
    single-assignment values; a value's slot is taken at its first
    write and released after its last access, and a kernel may write
    into the slot of an operand it reads for the last time — every
    kernel is elementwise, so that in-place aliasing is exact.
    """

    __slots__ = ("cols", "outs", "kernels", "n_scratch", "tile_words")

    def __init__(self, program: VectorProgram) -> None:
        # Pass 1: kernels over values (>= 0) and columns (~index < 0).
        cols: dict[str, int] = {}
        cur: dict[int, int] = {}
        ops: list[tuple] = []
        n_values = 0
        for step in program.steps:
            for op in step[2]:
                name = op[0]
                arity = _ARITY[name]
                args = []
                for spec in op[2:2 + arity]:
                    if spec[0] == "col":
                        index = cols.get(spec[1])
                        if index is None:
                            index = cols[spec[1]] = len(cols)
                        args.append(~index)
                    else:
                        args.append(cur[spec[1]])
                value = cur[op[1]] = n_values
                n_values += 2 if name in ("maj", "maj4") else 1
                ops.extend(_micro_kernels(name, value,
                                          args if arity else op[2:3],
                                          value + 1))
        named = program.out_regs if program.out_regs is not None \
            else {None: program.out_reg}
        out_of: dict[int, int] = {}
        outs: list[list] = []
        for name, reg in named.items():
            value = cur[reg]
            if value not in out_of:
                out_of[value] = len(outs)
                outs.append([])
            outs[out_of[value]].append(name)
        last = [-1] * n_values
        for index, (_, dst, a, b) in enumerate(ops):
            last[dst] = index
            if a is not None and a >= 0:
                last[a] = index
            if b is not None and b >= 0:
                last[b] = index

        # Pass 2: linear-scan slot assignment.
        n_cols = len(cols)
        base = n_cols + len(outs)
        slot = [-1] * n_values
        free: list[int] = []
        n_scratch = 0
        kernels = []
        for index, (kind, dst, a, b) in enumerate(ops):
            reads = [v for v in (a, b) if v is not None and v >= 0]
            sa = -1 if a is None else (~a if a < 0 else slot[a])
            sb = -1 if b is None else (~b if b < 0 else slot[b])
            if slot[dst] < 0:
                if dst in out_of:
                    slot[dst] = n_cols + out_of[dst]
                else:
                    for value in reads:  # last reads donate their slot
                        if last[value] == index and slot[value] >= base:
                            free.append(slot[value])
                            last[value] = -1
                    if free:
                        slot[dst] = free.pop()
                    else:
                        slot[dst] = base + n_scratch
                        n_scratch += 1
            if kind.startswith("fill"):
                kernels.append((None, slot[dst], int(kind[4:]), -1))
            else:
                kernels.append((_KERNELS[kind], slot[dst], sa, sb))
            for value in reads + [dst]:
                if last[value] == index and slot[value] >= base:
                    free.append(slot[value])
                    last[value] = -1
        self.cols = list(cols)
        self.outs = outs
        self.kernels = kernels
        self.n_scratch = n_scratch
        budget = _TILE_BUDGET // (8 * max(1, n_scratch))
        self.tile_words = max(_TILE_ALIGN,
                              budget // _TILE_ALIGN * _TILE_ALIGN)

    def tiles(self, rows: int, words: int) -> list[tuple]:
        """``(r0, r1, w0, w1)`` tiles covering a ``(rows, words)``
        matrix.  A tile is either whole rows or part of one row, so
        each tile's popcount belongs to whole shards."""
        width = self.tile_words
        if words <= width:
            step = max(1, width // max(1, words))
            return [(r, min(r + step, rows), 0, words)
                    for r in range(0, rows, step)]
        per_piece = -(-words // -(-words // width))
        chunk = -(-per_piece // _TILE_ALIGN) * _TILE_ALIGN
        return [(r, r + 1, w, min(w + chunk, words))
                for r in range(rows) for w in range(0, words, chunk)]

    def execute(self, shape, inputs: list, dests: list,
                mask: np.ndarray | None, tallies: list | None) -> None:
        """Run every kernel tile by tile (see :class:`_Schedule`)."""
        rows, words = shape
        tiles = self.tiles(rows, words)
        size = max((r1 - r0) * (w1 - w0) for r0, r1, w0, w1 in tiles)
        scratch = np.empty(self.n_scratch * size, dtype=np.uint64)
        bytes_ = np.empty(size, dtype=np.uint8) \
            if tallies is not None else None
        by_shape: dict[tuple, tuple] = {}
        kernels = self.kernels
        for r0, r1, w0, w1 in tiles:
            tile = (r1 - r0, w1 - w0)
            cached = by_shape.get(tile)
            if cached is None:
                n = tile[0] * tile[1]
                cached = by_shape[tile] = (
                    [scratch[k * size:k * size + n].reshape(tile)
                     for k in range(self.n_scratch)],
                    None if bytes_ is None else bytes_[:n].reshape(tile))
            heads = [group[0][r0:r1, w0:w1] for group in dests]
            v = [m[r0:r1, w0:w1] for m in inputs] + heads + cached[0]
            for f, o, a, b in kernels:
                if b >= 0:
                    f(v[a], v[b], v[o])
                elif f is not None:
                    f(v[a], v[o])
                else:
                    v[o].fill(_FILL[a])
            valid = None if mask is None else mask[r0:r1, w0:w1]
            for k, head in enumerate(heads):
                if valid is not None:
                    np.bitwise_and(head, valid, head)
                for extra in dests[k][1:]:
                    np.positive(head, extra[r0:r1, w0:w1])
                if tallies is not None:
                    np.bitwise_count(head, out=cached[1])
                    tallies[k][r0:r1] += cached[1].sum(axis=1,
                                                       dtype=np.int64)


# -- fusion helpers ----------------------------------------------------
def _fuse_pair(producer: tuple, consumer: tuple) -> tuple | None:
    """Merge ``producer`` (single and/andn/nor/xor micro) into
    ``consumer`` when the produced value dies there; returns the merged
    step or None when no rewrite applies."""
    pkey, pdst, pmicro, pfree = producer[0], producer[1], \
        producer[2], producer[3]
    ckey, cdst, cmicro, cfree = consumer[0], consumer[1], \
        consumer[2], consumer[3]
    if len(cmicro) != 1 or cdst == pdst:
        return None
    if pdst not in cfree:
        return None  # producer's value outlives the consumer
    pk = pmicro[0][0]
    pargs = pmicro[0][2:]
    cop = cmicro[0]
    ck = cop[0]
    pref = ("reg", pdst)
    if sum(1 for spec in cop[2:] if spec == pref) != 1:
        return None
    new = None
    if ck == "not" and cop[2] == pref:
        if pk == "and":
            new = ("nand", cdst) + pargs
        elif pk == "nor":
            new = ("or", cdst) + pargs
        elif pk == "xor":
            new = ("xnor", cdst) + pargs
        elif pk == "andn":  # ~(x & ~y) == y | ~x
            new = ("ornot", cdst, pargs[1], pargs[0])
    elif ck == "andn" and pk == "nor":
        if cop[3] == pref:  # A & ~nor(x,y) == (x | y) & A
            new = ("andor", cdst, pargs[0], pargs[1], cop[2])
        elif cop[2] == pref:  # nor(x,y) & ~B == ~(x | y | B)
            new = ("noror", cdst, pargs[0], pargs[1], cop[3])
    if new is None:
        return None
    return (ckey, cdst, (new,), tuple(sorted(set(pfree) | set(cfree))))


def _lower_vector(plan: "CompiledQuery") -> VectorProgram:
    """Lower a compiled plan's AIG schedule into a VectorProgram."""
    aig = plan._aig
    root = plan._root
    root_idx = root >> 1
    steps: list[tuple] = []
    node_reg: dict[int, int] = {}
    n_regs = 0

    def new_reg() -> int:
        nonlocal n_regs
        n_regs += 1
        return n_regs - 1

    def operand(ref_idx: int):
        node = aig.nodes[ref_idx]
        if node[0] == "col":
            return ("col", node[1])
        return ("reg", node_reg[ref_idx])

    # Remaining-use counts drive scratch release (root is retained).
    remaining = dict(plan._uses)

    def consume(ref_idx: int, free_regs: list[int]) -> None:
        remaining[ref_idx] -= 1
        if (remaining[ref_idx] == 0 and ref_idx in node_reg
                and ref_idx != root_idx):
            free_regs.append(node_reg[ref_idx])

    for idx in plan._schedule:
        node = aig.nodes[idx]
        kind = node[0]
        dst = new_reg()
        node_reg[idx] = dst
        micro: list[tuple] = []
        free_regs: list[int] = []
        if kind == "and":
            _, r1, r2 = node
            a, b = operand(r1 >> 1), operand(r2 >> 1)
            n1, n2 = r1 & 1, r2 & 1
            if not n1 and not n2:
                micro.append(("and", dst, a, b))
            elif n1 and n2:
                micro.append(("nor", dst, a, b))
            elif n1:
                micro.append(("andn", dst, b, a))
            else:
                micro.append(("andn", dst, a, b))
            consume(r1 >> 1, free_regs)
            consume(r2 >> 1, free_regs)
        elif kind == "xor":
            _, r1, r2 = node  # canonically positive references
            micro.append(("xor", dst, operand(r1 >> 1),
                          operand(r2 >> 1)))
            consume(r1 >> 1, free_regs)
            consume(r2 >> 1, free_regs)
        else:  # maj: normalized to at most one negated operand
            refs = node[1:]
            specs = []
            for ref in refs:
                if ref & 1:
                    tmp = new_reg()
                    micro.append(("not", tmp, operand(ref >> 1)))
                    specs.append(("reg", tmp))
                    free_regs.append(tmp)
                else:
                    specs.append(operand(ref >> 1))
            micro.append(("maj", dst, *specs))
            for ref in refs:
                consume(ref >> 1, free_regs)
        steps.append((aig.keys[idx], dst, tuple(micro),
                      tuple(free_regs)))

    # Root materialization (mirrors CompiledQuery._run_planned).
    root_kind = aig.nodes[root_idx][0]
    if root_kind == "true":
        out = new_reg()
        steps.append((aig.ref_key(root), out,
                      (("const", out, 0 if root & 1 else 1),), ()))
    elif root_kind == "col":
        out = new_reg()
        op = "not" if root & 1 else "copy"
        steps.append((aig.ref_key(root), out,
                      ((op, out, operand(root_idx)),), ()))
    elif root & 1:
        # A fresh register: the node's value may be shared with the
        # other plans of a merged batch.
        out = new_reg()
        steps.append((aig.ref_key(root), out,
                      (("not", out, ("reg", node_reg[root_idx])),),
                      (node_reg[root_idx],)))
    else:
        out = node_reg[root_idx]
    return VectorProgram(steps, n_regs, out)


# ----------------------------------------------------------------------
# parity-planning compiler
# ----------------------------------------------------------------------
#: planner cost of one engine XOR: 3 logic primitives + 1 internal
#: materialization (AND/MAJ cost 1 and are inlined in the DP rows)
_XOR_COST = 4


class CompiledQuery:
    """An optimized, engine-executable query plan.

    Produced by :func:`compile_expr`; run with :meth:`run`.  The plan is
    specific to a native-primitive polarity (``inverting=True`` for the
    FeRAM MIN engine, ``False`` for the DRAM MAJ engine) because the
    flag-parity algebra differs.
    """

    def __init__(self, expr: Expr, inverting: bool) -> None:
        self.expr = expr
        self.inverting = bool(inverting)
        self._aig = _Aig()
        self._root = self._aig.lower(expr)
        self.key = self._aig.ref_key(self._root)
        self._plan()
        # Live columns: referenced by the *optimized* graph (folded-away
        # operands need no binding).
        self.cols = tuple(
            name for name in self._aig.col_order
            if (self._aig.col(name) >> 1) in self._needed)
        # Lazily built columnar artifacts (see vector_program /
        # cost_events): lowering happens at most once per plan, event
        # probing at most once per (plan, initial column flags) pair;
        # both then ride the service's plan cache.
        self._vector_program: VectorProgram | None = None
        self._vector_program_fused: VectorProgram | None = None
        self._cost_events: dict[tuple, tuple] = {}
        # Ground-truth primitive counts, measured per row on throwaway
        # counting engines (exact — the executor is deterministic), and
        # cost-based plan selection: the parity DP is optimal on trees
        # but approximate once CSE shares a node between consumers that
        # demand different parities, so on the rare expression where the
        # naive chain measures cheaper, the plan keeps the naive order.
        self._use_naive = False
        self.primitives = _measure(self._run_planned, self.cols,
                                   self.inverting)
        self.naive_primitives = _measure(
            lambda eng, cols: naive_run(self.expr, eng, cols),
            self.expr.cols(), self.inverting)
        if self.naive_primitives < self.primitives:
            self._use_naive = True
            self.primitives = self.naive_primitives
            self.cols = self.expr.cols()  # the naive chain binds all

    # -- reachability --------------------------------------------------
    def _reachable(self) -> list[int]:
        """Needed node indices, children before parents."""
        order: list[int] = []
        seen: set[int] = set()
        stack: list[tuple[int, bool]] = [(self._root >> 1, False)]
        while stack:
            idx, expanded = stack.pop()
            if expanded:
                order.append(idx)
                continue
            if idx in seen:
                continue
            seen.add(idx)
            stack.append((idx, True))
            for ref in self._aig.nodes[idx][1:]:
                if isinstance(ref, int):
                    stack.append((ref >> 1, False))
        return order

    # -- planning ------------------------------------------------------
    def _plan(self) -> None:
        aig = self._aig
        inv = 1 if self.inverting else 0
        order = self._reachable()
        self._needed = set(order)
        cost: dict[int, list[int]] = {}
        xor_choice: dict[tuple[int, int], int] = {}

        def cref(ref: int, parity: int) -> int:
            return cost[ref >> 1][parity ^ (ref & 1)]

        for idx in order:
            node = aig.nodes[idx]
            kind = node[0]
            if kind == "true":
                cost[idx] = [0, 0]
            elif kind == "col":
                cost[idx] = [0, 1]
            elif kind == "and":
                _, r1, r2 = node
                cost[idx] = [cref(r1, p ^ inv) + cref(r2, p ^ inv) + 1
                             for p in (0, 1)]
            elif kind == "xor":
                _, r1, r2 = node
                cost[idx] = []
                for p in (0, 1):
                    want = p ^ inv  # parity of f1 ^ f2
                    branches = [cref(r1, 0) + cref(r2, want),
                                cref(r1, 1) + cref(r2, want ^ 1)]
                    best = 0 if branches[0] <= branches[1] else 1
                    xor_choice[(idx, p)] = best
                    cost[idx].append(branches[best] + _XOR_COST)
            elif kind == "maj":
                _, r1, r2, r3 = node
                cost[idx] = [cref(r1, p ^ inv) + cref(r2, p ^ inv)
                             + cref(r3, p ^ inv) + 1 for p in (0, 1)]
        root_idx = self._root >> 1
        self._root_parity = 0 if cost[root_idx][0] <= cost[root_idx][1] \
            else 1
        self.planned_cost = cost[root_idx][self._root_parity]

        # Top-down demand pass: first demand fixes a node's execution
        # parity; later consumers wanting the other parity re-encode at
        # run time (one NOT, counted by the measured ground truth).
        exec_parity: dict[int, int] = {}
        stack = [(root_idx, self._root_parity)]
        while stack:
            idx, parity = stack.pop()
            if idx in exec_parity:
                continue
            exec_parity[idx] = parity
            node = aig.nodes[idx]
            kind = node[0]
            if kind in ("and", "maj"):
                q = parity ^ inv
                for ref in node[1:]:
                    stack.append((ref >> 1, q ^ (ref & 1)))
            elif kind == "xor":
                _, r1, r2 = node
                q1 = xor_choice[(idx, parity)]
                q2 = (parity ^ inv) ^ q1
                stack.append((r1 >> 1, q1 ^ (r1 & 1)))
                stack.append((r2 >> 1, q2 ^ (r2 & 1)))
        self._exec_parity = exec_parity
        self._schedule = self._list_schedule(order, exec_parity, inv)
        # Liveness: uses per node (consumers + root retention).
        uses: dict[int, int] = {root_idx: 1}
        for idx in self._schedule:
            for ref in aig.nodes[idx][1:]:
                child = ref >> 1
                uses[child] = uses.get(child, 0) + 1
        self._uses = uses

    def _list_schedule(self, order: list[int],
                       exec_parity: dict[int, int],
                       inv: int) -> list[int]:
        """Greedy list scheduling of the op nodes.

        Any topological order is correct, but when a shared column is
        planned at different parities by different consumers, the order
        decides how many re-encoding NOTs are paid at run time: ops
        whose operand encodings are already satisfied go first, so a
        shared leaf is only re-encoded once its natural-parity
        consumers are done.  The simulated parity state mirrors the
        executor's runtime checks exactly.
        """
        aig = self._aig
        ops = [idx for idx in order
               if aig.nodes[idx][0] in ("and", "xor", "maj")]
        position = {idx: k for k, idx in enumerate(ops)}
        pending = {idx: sum(1 for ref in aig.nodes[idx][1:]
                            if (ref >> 1) in position)
                   for idx in ops}
        consumers: dict[int, list[int]] = {}
        for idx in ops:
            for ref in aig.nodes[idx][1:]:
                consumers.setdefault(ref >> 1, []).append(idx)
        parity: dict[int, int] = {}  # simulated current parity

        def cur(ref: int) -> int:
            return parity.get(ref >> 1, 0) ^ (ref & 1)

        def mismatches(idx: int) -> int:
            node = aig.nodes[idx]
            if node[0] == "xor":
                return 0
            q = exec_parity[idx] ^ inv
            return sum(1 for ref in node[1:] if cur(ref) != q)

        schedule: list[int] = []
        ready = [idx for idx in ops if pending[idx] == 0]
        while ready:
            ready.sort(key=lambda idx: (mismatches(idx), position[idx]))
            idx = ready.pop(0)
            node = aig.nodes[idx]
            if node[0] == "xor":
                parity[idx] = inv ^ cur(node[1]) ^ cur(node[2])
            else:
                q = exec_parity[idx] ^ inv
                for ref in node[1:]:
                    parity[ref >> 1] = q ^ (ref & 1)
                parity[idx] = exec_parity[idx]
            schedule.append(idx)
            for parent in consumers.get(idx, ()):
                pending[parent] -= 1
                if pending[parent] == 0:
                    ready.append(parent)
        return schedule

    # -- columnar artifacts --------------------------------------------
    def vector_program(self, *, fused: bool = False) -> VectorProgram:
        """The plan's register-machine bytecode (lowered once, cached).

        Bit-exact with :meth:`run` on any engine: both compute the same
        logical function of the AIG; the program just does it as one
        numpy kernel per step over packed word matrices.  With
        ``fused=True``, returns the peephole-fused form (see
        :meth:`VectorProgram.fuse`) — same bits, fewer kernels and
        fewer scratch matrices.
        """
        if self._vector_program is None:
            self._vector_program = _lower_vector(self)
        if not fused:
            return self._vector_program
        if self._vector_program_fused is None:
            self._vector_program_fused = self._vector_program.fuse()
        return self._vector_program_fused

    def cost_events(self, flags: tuple[bool, ...] | None = None,
                    ) -> tuple:
        """Per-row engine charge events of this plan (probed once).

        Returns ``(PlanEvents, final_flags)``: the charge events a
        replay of :meth:`run` fires per table row on a service shard
        (columns co-located in one cell group), plus the complement
        flags the bound columns are left with.  Replay costs depend on
        the columns' *current* flag encodings — parity steering
        re-encodes operands persistently — so ``flags`` (aligned with
        :attr:`cols`; default all-plain) selects the initial state and
        results are memoized per state.
        """
        if flags is None:
            flags = (False,) * len(self.cols)
        cached = self._cost_events.get(flags)
        if cached is None:
            from repro.arch.primitives import probe_plan_events
            cached = probe_plan_events(self, flags)
            self._cost_events[flags] = cached
        return cached

    # -- execution -----------------------------------------------------
    def run(self, engine: BulkEngine,
            columns: Mapping[str, BitVector],
            name: str | None = None, *,
            n_bits: int | None = None) -> BitVector:
        """Execute the plan; returns a fresh (owned) result vector.

        ``columns`` maps column names to resident vectors (all the same
        width).  Columns are only mutated value-preservingly (flag
        re-encodings); intermediates are freed at their last use.
        ``n_bits`` fixes the result width when the optimized query
        references no columns (a fully folded constant).
        """
        if self._use_naive:
            return naive_run(self.expr, engine, columns, name,
                             n_bits=n_bits)
        return self._run_planned(engine, columns, name, n_bits=n_bits)

    def _run_planned(self, engine: BulkEngine,
                     columns: Mapping[str, BitVector],
                     name: str | None = None, *,
                     n_bits: int | None = None) -> BitVector:
        aig = self._aig
        missing = [c for c in self.cols if c not in columns]
        if missing:
            raise QueryError(f"unbound column(s): {missing}")
        widths = {columns[c].n_bits for c in self.cols}
        if len(widths) > 1:
            raise QueryError(f"column width mismatch: {sorted(widths)}")
        if widths:
            n_bits = widths.pop()
        elif n_bits is None:  # fully folded: fall back to bound width
            n_bits = next(iter(columns.values())).n_bits if columns \
                else 64

        # Distinct column names must act as distinct storage; if the
        # caller binds one vector under several referenced names, give
        # the duplicates owned copies (one honest row copy each) so the
        # free flag flips below cannot corrupt a shared operand — the
        # aliasing class the engine ops themselves guard against.
        bound: dict[str, BitVector] = {}
        alias_copies: list[BitVector] = []
        seen: list[BitVector] = []
        for col in self.cols:
            vec = columns[col]
            if any(vec is other for other in seen):
                vec = engine.copy(vec, col)
                alias_copies.append(vec)
            bound[col] = vec
            seen.append(vec)

        vecs: dict[int, BitVector] = {}
        uses = dict(self._uses)
        root_idx = self._root >> 1

        def fetch(idx: int) -> BitVector:
            vec = vecs.get(idx)
            if vec is None:  # leaf column, bound lazily
                vec = bound[aig.nodes[idx][1]]
                vecs[idx] = vec
            return vec

        def release(idx: int) -> None:
            uses[idx] -= 1
            if (uses[idx] == 0 and aig.nodes[idx][0] not in
                    ("col", "true") and idx != root_idx):
                engine.free(vecs[idx])

        for idx in self._schedule:
            node = aig.nodes[idx]
            kind = node[0]
            if kind == "xor":
                _, r1, r2 = node  # canonically positive references
                out = engine.xor(fetch(r1 >> 1), fetch(r2 >> 1))
                release(r1 >> 1)
                release(r2 >> 1)
            else:
                refs = node[1:]
                q = self._exec_parity[idx] ^ (1 if self.inverting else 0)
                operands = []
                flipped = []
                for ref in refs:
                    vec = fetch(ref >> 1)
                    if ref & 1:  # free inverting view of the operand
                        engine.not_(vec)
                        flipped.append(vec)
                    operands.append(vec)
                try:
                    # Steer stragglers to the planned common parity so
                    # the engine op itself never has to equalize.
                    for vec in operands:
                        if vec.complemented != q:
                            engine.force_flag(vec, bool(q))
                    if kind == "and":
                        out = engine.and_(*operands)
                    else:
                        out = engine.majority(*operands)
                finally:
                    for vec in flipped:
                        engine.not_(vec)
                for ref in refs:
                    release(ref >> 1)
            vecs[idx] = out

        # Root materialization: plain columns/constants are copied so
        # the caller always owns the returned vector.
        root_node = aig.nodes[root_idx][0]
        if root_node == "true":
            out = engine.constant(n_bits, 0 if self._root & 1 else 1,
                                  name)
        elif root_node == "col":
            out = engine.copy(fetch(root_idx), name)
            if self._root & 1:
                engine.not_(out)
        else:
            out = vecs[root_idx]
            if self._root & 1:
                engine.not_(out)
            if name is not None:
                out.name = name
        engine.free(*alias_copies)
        return out


def compile_expr(expr: "Expr | str", *,
                 inverting: bool = True) -> CompiledQuery:
    """Compile an expression (or query string) into an engine plan."""
    return CompiledQuery(_as_expr(expr), inverting)


def compile_for(engine: BulkEngine,
                expr: "Expr | str") -> CompiledQuery:
    """Compile for the engine's native primitive polarity."""
    return CompiledQuery(_as_expr(expr), engine._native_inverting())


# ----------------------------------------------------------------------
# naive baseline
# ----------------------------------------------------------------------
def naive_run(expr: "Expr | str", engine: BulkEngine,
              columns: Mapping[str, BitVector],
              name: str | None = None, *,
              n_bits: int | None = None) -> BitVector:
    """Execute the raw AST through the engine's compound ops, exactly as
    handwritten kernels chain them: left folds, ``andnot`` for negated
    AND terms, flip-and-restore for other negated columns, no CSE, no
    parity planning.  This is the before side of the before/after
    primitive counts the compiler is benchmarked against.

    A negated view of a resident column only ever exists inside a
    single engine call (flip, operate, restore), so sibling
    sub-expressions never observe a flipped column; a column required
    both plain and negated by the *same* call is copied, since the
    shared-flag flip is exactly the aliasing corruption the engine ops
    guard against.
    """
    expr = _as_expr(expr)

    def col_vec(name_: str) -> BitVector:
        try:
            return columns[name_]
        except KeyError:
            raise QueryError(f"unbound column(s): [{name_!r}]") from None

    def _width() -> int:
        for vec in columns.values():
            return vec.n_bits
        return n_bits or 64

    def is_neg_col(node: Expr) -> bool:
        return isinstance(node, Not) and isinstance(node.x, Col)

    def free_owned(parts) -> None:
        for vec, owned in parts:
            if owned:
                engine.free(vec)

    def apply(op, parts, neg_names) -> BitVector:
        """One engine call with flip-scoped negated-column views."""
        resolved = [vec for vec, _ in parts]
        flips: list[BitVector] = []
        copies: list[BitVector] = []
        vecs = list(resolved)
        for name_ in neg_names:
            vec = col_vec(name_)
            if any(vec is other for other in resolved):
                vec = engine.not_(engine.copy(vec))
                copies.append(vec)
            elif not any(vec is f for f in flips):
                engine.not_(vec)
                flips.append(vec)
            vecs.append(vec)
        try:
            out = op(*vecs)
        finally:
            for vec in flips:
                engine.not_(vec)
        for vec in copies:
            engine.free(vec)
        free_owned(parts)
        return out

    def fold(parts, combine) -> tuple[BitVector, bool]:
        acc, acc_owned = parts[0]
        for vec, owned in parts[1:]:
            nxt = combine(acc, vec)
            if acc_owned:
                engine.free(acc)
            if owned:
                engine.free(vec)
            acc, acc_owned = nxt, True
        return acc, acc_owned

    def eval_node(node: Expr) -> tuple[BitVector, bool]:
        if isinstance(node, Col):
            return col_vec(node.name), False
        if isinstance(node, Const):
            return engine.constant(_width(), node.bit), True
        if isinstance(node, Not):
            if isinstance(node.x, Not):  # trivial double-NOT
                return eval_node(node.x.x)
            if isinstance(node.x, Col):
                # Standalone negated column (root position): a durable
                # owned complement.
                return engine.not_(engine.copy(col_vec(node.x.name))), True
            vec, owned = eval_node(node.x)
            if owned:
                return engine.not_(vec), True
            return engine.not_(engine.copy(vec)), True
        if isinstance(node, (And, Nand)):
            positives = [x for x in node.xs if not isinstance(x, Not)]
            negated = [x.x for x in node.xs if isinstance(x, Not)]
            if positives:
                acc, acc_owned = fold([eval_node(x) for x in positives],
                                      engine.and_)
            else:
                # All-negated head: ~a & ~b is one native NOR.
                first = eval_node(negated.pop(0))
                second = eval_node(negated.pop(0))
                acc = engine.nor(first[0], second[0])
                free_owned([first, second])
                acc_owned = True
            for inner in negated:
                part = eval_node(inner)
                nxt = engine.andnot(acc, part[0])
                if acc_owned:
                    engine.free(acc)
                free_owned([part])
                acc, acc_owned = nxt, True
            if isinstance(node, Nand):
                if not acc_owned:
                    acc, acc_owned = engine.copy(acc), True
                engine.not_(acc)
            return acc, acc_owned
        if isinstance(node, (Or, Nor)):
            others = [x for x in node.xs if not is_neg_col(x)]
            neg_names = [x.x.name for x in node.xs if is_neg_col(x)]
            if others:
                acc, acc_owned = fold([eval_node(x) for x in others],
                                      engine.or_)
            else:
                # All-negated head: ~a | ~b is one native NAND.
                acc = engine.nand(col_vec(neg_names.pop(0)),
                                  col_vec(neg_names.pop(0)))
                acc_owned = True
            for name_ in neg_names:
                nxt = apply(engine.or_, [(acc, acc_owned)], [name_])
                acc, acc_owned = nxt, True
            if isinstance(node, Nor):
                if not acc_owned:
                    acc, acc_owned = engine.copy(acc), True
                engine.not_(acc)
            return acc, acc_owned
        if isinstance(node, (Xor, Xnor)):
            # Complements pass through XOR freely; strip them and fold
            # the parity into one final free flip.
            parity = sum(isinstance(x, Not) for x in node.xs) % 2
            inners = [x.x if isinstance(x, Not) else x for x in node.xs]
            acc, acc_owned = fold([eval_node(x) for x in inners],
                                  engine.xor)
            if not acc_owned:
                acc, acc_owned = engine.copy(acc), True
            if parity ^ (1 if isinstance(node, Xnor) else 0):
                engine.not_(acc)
            return acc, acc_owned
        if isinstance(node, AndNot):
            parts = [eval_node(node.a), eval_node(node.b)]
            out = engine.andnot(parts[0][0], parts[1][0])
            free_owned(parts)
            return out, True
        if isinstance(node, (Maj, Select)):
            op = engine.majority if isinstance(node, Maj) \
                else engine.select
            kids = node.children()
            parts = [eval_node(x) for x in kids if not is_neg_col(x)]
            neg_names = [x.x.name for x in kids if is_neg_col(x)]
            # apply() appends negated views after the positives, so
            # re-order arguments to match the op signature.
            order = ([i for i, x in enumerate(kids) if not is_neg_col(x)]
                     + [i for i, x in enumerate(kids) if is_neg_col(x)])

            def call(*vecs):
                slots = [None] * len(kids)
                for slot, vec in zip(order, vecs):
                    slots[slot] = vec
                return op(*slots)

            return apply(call, parts, neg_names), True
        if isinstance(node, Match):
            if all(isinstance(x, Col) for x in node.xs):
                # CAM search through the engine's compound match op.
                vecs = [col_vec(x.name) for x in node.xs]
                return engine.match(vecs, node.key, node.mask), True
            # Non-column operands: fall back to the desugared form.
            return eval_node(node.as_logic())
        raise QueryError(f"cannot execute {type(node).__name__}")

    out, owned = eval_node(expr)
    if not owned:  # bare column query: hand back an owned copy
        out = engine.copy(out)
    if name is not None:
        out.name = name
    return out


# ----------------------------------------------------------------------
# primitive accounting
# ----------------------------------------------------------------------
def native_primitives(stats: Stats) -> int:
    """Native logic-primitive count in a ledger: triple activations
    (TBA/TRA), i.e. compute ACPs/AAPs including materialized NOTs."""
    return (stats.counts.get(CommandType.ACTIVATE_TBA, 0)
            + stats.counts.get(CommandType.ACTIVATE_TRA, 0))


def _measure(run_fn, col_names, inverting: bool) -> int:
    """Exact per-row primitive count of an executor on dummy columns.

    Uses a counting-mode engine (paper staging policy for DRAM, so one
    TRA equals one primitive) with co-located single-row columns."""
    from repro.arch.primitives import make_engine

    if inverting:
        engine = make_engine("feram-2tnc", functional=False)
    else:
        engine = make_engine(
            "dram", functional=False,
            spec=DRAM_8GB.with_policy(StagingPolicy.PAPER))
    columns: dict[str, BitVector] = {}
    first: BitVector | None = None
    for col in col_names:
        vec = engine.allocate(64, col, group_with=first)
        first = first or vec
        columns[col] = vec
    run_fn(engine, columns)
    return native_primitives(engine.stats)
