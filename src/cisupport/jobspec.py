"""Declarative job files: a tiny sectioned grammar with exact diagnostics.

Sections, one directive per line (blank lines and # comments ignored):

    field 5
    ring x y z            # or  x:2 y z  for weights
    relations x^2 ; y^2 ; z^2
    module k
    residue
    module M
    twists 0 0
    columns x, 0 ; y, x
    command betti
    length 5
    module M

The command parameters, and which of them the CLI also takes as flags, are
listed once in PARAMS, and the ones each command reads in COMMANDS; each
value is checked against its kind and least value where it is read, and a
parameter its section's command does not read is refused, so a bad job-file
line is a located error.

Rendering is canonical (re-rendered polynomials, normalized spacing, sorted
command parameters), so render(parse(text)) is idempotent and
parse(render(job)) == job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cimodule import CIRing, GradedModule, residue_module
from .field import PrimeField, is_prime
from .modlinalg import PRIME_LIMIT
from .poly import PolyParseError, PolyRing, parse_poly, render_poly


class JobSpecError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


@dataclass
class ModuleDecl:
    name: str
    residue: bool = False
    twists: tuple = ()
    columns: tuple = ()  # tuple of tuples of canonical entry strings
    col_twists: tuple = None

    def key(self):
        return (self.name, self.residue, self.twists, self.columns, self.col_twists)


@dataclass
class CommandDecl:
    name: str
    params: dict = field(default_factory=dict)

    def key(self):
        return (self.name, tuple(sorted(self.params.items())))


@dataclass
class JobSpec:
    p: int
    variables: tuple  # tuple of (name, weight)
    relations: tuple  # canonical polynomial strings
    modules: tuple  # tuple of ModuleDecl, in declaration order
    command: CommandDecl = None
    ring: CIRing = field(default=None, repr=False)  # built while parsing; not in key()

    def key(self):
        return (
            self.p,
            self.variables,
            self.relations,
            tuple(m.key() for m in self.modules),
            self.command.key() if self.command else None,
        )

    def __eq__(self, other):
        return isinstance(other, JobSpec) and other.key() == self.key()

    # -- construction of live objects ------------------------------------

    def ci_ring(self) -> CIRing:
        """The ring parse_input built and validated."""
        return self.ring

    def build_module(self, name: str, ring: CIRing) -> GradedModule:
        for decl in self.modules:
            if decl.name == name:
                break
        else:
            raise JobSpecError(f"unknown module {name!r}")
        if decl.residue:
            return residue_module(ring)
        amb = ring.ambient
        cols = [
            [parse_poly(amb, e) if e != "0" else amb.zero() for e in col]
            for col in decl.columns
        ]
        if not decl.twists:
            from .cimodule import zero_module

            return zero_module(ring)
        return GradedModule.from_columns(
            ring, decl.twists, cols, decl.col_twists
        )

    def default_module(self):
        if self.command and "module" in self.command.params:
            return self.command.params["module"]
        non_res = [m.name for m in self.modules]
        if len(non_res) == 1:
            return non_res[0]
        raise JobSpecError("ambiguous target module; set 'module' in the command")


# command -> the parameters it reads
COMMANDS = {
    "resolve": ("module", "length"),
    "betti": ("module", "length"),
    "operators": ("module", "window"),
    "variety": ("module", "degree-bound", "allow-unstable"),
    "member": ("module", "module2", "point"),
    "restrict": ("module", "subspace", "degree-bound", "allow-unstable"),
    "realize": ("cone", "allow-unstable"),
    "check": (),
}


@dataclass(frozen=True)
class Param:
    """A command parameter: an integer >= minimum, text, or a switch that
    takes no value; flag says whether the CLI also accepts it as --name."""

    kind: str  # "int" | "text" | "switch"
    minimum: int = 0
    flag: bool = True

    def value(self, name: str, text: str, line: int = 0, col: int = 0):
        """text read as this parameter; JobSpecError, located when line is
        given, when it is not a value of this kind."""
        if self.kind == "switch":
            if text:
                raise JobSpecError(f"{name} takes no value, got {text!r}", line, col)
            return True
        if self.kind == "text":
            return text
        try:
            value = int(text)
        except ValueError:
            raise JobSpecError(f"{name} must be an integer, got {text!r}", line, col)
        if value < self.minimum:
            raise JobSpecError(f"{name} must be >= {self.minimum}, got {value}", line, col)
        return value


PARAMS = {
    "length": Param("int"),
    "window": Param("int"),
    "degree-bound": Param("int", minimum=1),
    "point": Param("text"),
    "subspace": Param("text"),
    "cone": Param("text"),
    "module": Param("text", flag=False),
    "module2": Param("text", flag=False),
    "allow-unstable": Param("switch"),
}


def parse_input(text: str) -> JobSpec:
    """Parse and semantically validate a job file."""
    p = None
    variables = []
    relations = []
    modules = []
    command = None
    mode = None  # None | "module" | "command"
    cur_module = None

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        word = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""

        if mode == "command" and word in PARAMS:
            PARAMS[word].value(word, rest, lineno, len(word) + 2)
            if word not in COMMANDS[command.name]:
                raise JobSpecError(f"{command.name} does not read {word}", lineno, 1)
            command.params[word] = rest
        elif word == "field":
            if p is not None:
                raise JobSpecError("duplicate field section", lineno, 1)
            try:
                p = int(rest)
            except ValueError:
                raise JobSpecError(f"field wants a prime, got {rest!r}", lineno, 7)
            if p >= PRIME_LIMIT:
                raise JobSpecError(f"field prime must be below 2^31, got {p}", lineno, 7)
            if not is_prime(p):
                raise JobSpecError(f"{p} is not prime", lineno, 7)
            mode = None
        elif word == "ring":
            if variables:
                raise JobSpecError("duplicate ring section", lineno, 1)
            pos = len(word)
            for tok in rest.split():
                pos = line.index(tok, pos)
                col = pos + 1
                pos += len(tok)
                name, colon, w = tok.partition(":")
                try:
                    weight = int(w) if colon else 1
                except ValueError:
                    raise JobSpecError(f"bad weight {w!r}", lineno, col)
                if weight < 1:
                    raise JobSpecError(f"weight must be positive, got {weight}", lineno, col)
                if not name.isidentifier():
                    raise JobSpecError(f"bad variable name {name!r}", lineno, col)
                if any(name == v for v, _ in variables):
                    raise JobSpecError(f"duplicate variable {name!r}", lineno, col)
                variables.append((name, weight))
            if not variables:
                raise JobSpecError("ring needs at least one variable", lineno, 1)
            mode = None
        elif word == "relations":
            if relations:
                raise JobSpecError("duplicate relations section", lineno, 1)
            relations = [s.strip() for s in rest.split(";") if s.strip()]
            relations_line = lineno
            mode = None
        elif word == "module":
            if not rest or not rest.isidentifier():
                raise JobSpecError("module needs a name", lineno, 8)
            if any(m.name == rest for m in modules):
                raise JobSpecError(f"duplicate module {rest!r}", lineno, 8)
            cur_module = ModuleDecl(name=rest)
            modules.append(cur_module)
            mode = "module"
        elif word == "command":
            if command is not None:
                raise JobSpecError("duplicate command section", lineno, 1)
            if rest not in COMMANDS:
                raise JobSpecError(
                    f"unknown command {rest!r} (expected one of {', '.join(COMMANDS)})",
                    lineno,
                    9,
                )
            command = CommandDecl(rest, {})
            mode = "command"
        elif mode == "module":
            if word == "residue":
                cur_module.residue = True
            elif word == "twists":
                if rest == "-":
                    cur_module.twists = ()
                else:
                    try:
                        cur_module.twists = tuple(int(t) for t in rest.split())
                    except ValueError:
                        raise JobSpecError("twists must be integers", lineno, 8)
            elif word == "columns":
                if rest == "-":
                    cur_module.columns = ()
                else:
                    cols = []
                    for col_text in rest.split(";"):
                        entries = tuple(e.strip() for e in col_text.split(","))
                        cols.append(entries)
                    cur_module.columns = tuple(cols)
            elif word == "coltwists":
                try:
                    cur_module.col_twists = tuple(int(t) for t in rest.split())
                except ValueError:
                    raise JobSpecError("coltwists must be integers", lineno, 10)
            else:
                raise JobSpecError(f"unknown module directive {word!r}", lineno, 1)
        elif mode == "command":
            raise JobSpecError(f"unknown command parameter {word!r}", lineno, 1)
        else:
            raise JobSpecError(f"unexpected directive {word!r}", lineno, 1)

    if p is None:
        raise JobSpecError("missing field section")
    if not variables:
        raise JobSpecError("missing ring section")
    if not relations:
        raise JobSpecError("missing relations section")

    # semantic validation: ring, relations, modules
    job = JobSpec(p=p, variables=tuple(variables), relations=(), modules=(), command=command)
    amb = PolyRing([v for v, _ in variables], field=PrimeField(p), weights=[w for _, w in variables])
    rel_polys = []
    for s in relations:
        try:
            rel_polys.append(parse_poly(amb, s))
        except PolyParseError as exc:
            raise JobSpecError(f"relation {s!r}: {exc.message}", relations_line, exc.pos + 1)
    for s, q in zip(relations, rel_polys):
        if not q.is_homogeneous():
            raise JobSpecError(f"relation {s!r} is not homogeneous", relations_line, 1)
    try:
        job.ring = CIRing(amb, rel_polys)
    except ValueError:
        raise JobSpecError(
            "relations are not a regular sequence of forms of degree >= 2",
            relations_line,
            1,
        )
    job.relations = tuple(render_poly(q) for q in rel_polys)

    canon_modules = []
    for decl in modules:
        if decl.residue:
            canon_modules.append(ModuleDecl(decl.name, True, (), (), None))
            continue
        cols = []
        for col in decl.columns:
            if len(col) != len(decl.twists):
                raise JobSpecError(
                    f"module {decl.name!r}: column with {len(col)} entries, need {len(decl.twists)}"
                )
            parsed = []
            for e in col:
                if e == "0":
                    parsed.append("0")
                    continue
                try:
                    q = parse_poly(amb, e)
                except PolyParseError as exc:
                    raise JobSpecError(f"module {decl.name!r}: {exc.message}")
                if not q.is_homogeneous():
                    raise JobSpecError(
                        f"module {decl.name!r}: non-homogeneous entry {e!r}"
                    )
                parsed.append(render_poly(q))
            cols.append(tuple(parsed))
        md = ModuleDecl(decl.name, False, decl.twists, tuple(cols), decl.col_twists)
        canon_modules.append(md)
    job.modules = tuple(canon_modules)

    # degree-consistency of module presentations (raises with module context)
    for decl in canon_modules:
        try:
            job.build_module(decl.name, job.ring)
        except ValueError as exc:
            raise JobSpecError(f"module {decl.name!r}: {exc}")
    return job


def render(job: JobSpec) -> str:
    """Canonical text form of a job; parse(render(job)) == job."""
    out = [f"field {job.p}"]
    vars_txt = " ".join(
        name if w == 1 else f"{name}:{w}" for name, w in job.variables
    )
    out.append(f"ring {vars_txt}")
    if job.relations:
        out.append("relations " + " ; ".join(job.relations))
    for m in job.modules:
        out.append(f"module {m.name}")
        if m.residue:
            out.append("residue")
            continue
        out.append("twists " + (" ".join(str(t) for t in m.twists) if m.twists else "-"))
        if m.columns:
            out.append(
                "columns " + " ; ".join(", ".join(col) for col in m.columns)
            )
        else:
            out.append("columns -")
        if m.col_twists is not None:
            out.append("coltwists " + " ".join(str(t) for t in m.col_twists))
    if job.command:
        out.append(f"command {job.command.name}")
        for k in sorted(job.command.params):
            out.append(f"{k} {job.command.params[k]}")
    return "\n".join(out) + "\n"
