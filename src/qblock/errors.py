"""Exception types shared across the package."""


class QBlockError(Exception):
    """Base class for all qblock errors."""


class ParseError(QBlockError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class SelfLoopError(ParseError):
    def __init__(self, line: int, vertex: int):
        super().__init__(line, f"self-loop at vertex {vertex}")
        self.vertex = vertex


class DuplicateEdgeError(ParseError):
    def __init__(self, line: int, edge: tuple):
        super().__init__(line, f"duplicate edge {edge}")
        self.edge = edge


class UnknownVertexError(QBlockError):
    pass


class NotConnectedError(QBlockError):
    pass


class UnknownNodeError(QBlockError):
    pass


class NotBiconnectedError(QBlockError):
    pass


class NotOuterplanarBlockError(QBlockError):
    """A biconnected graph has no Hamiltonian cycle whose other edges are
    non-crossing chords: it is not outerplanar."""


class UnsupportedBlockError(QBlockError):
    """A block is neither complete nor outerplanar; its quantum group is unknown."""


class TooLargeError(QBlockError):
    pass


class EmptyListError(QBlockError):
    pass


class BadOuterError(QBlockError):
    pass


class OrbitMismatchError(QBlockError):
    pass


class OrbitGapError(QBlockError):
    """Automorphism orbits are strictly finer than the WL vertex classes.

    The quantum orbits are then not pinned down by the classical sandwich,
    so the recursion cannot proceed soundly. Raised only when colour
    refinement (1-WL) and then 2-WL both leave the gap; `wl_partition` holds
    the 2-WL vertex classes.
    """

    def __init__(self, aut_orbits, wl_partition):
        super().__init__(
            f"orbit gap: Aut orbits {aut_orbits} strictly refine WL classes {wl_partition}"
        )
        self.aut_orbits = aut_orbits
        self.wl_partition = wl_partition


class ClassRefusedError(QBlockError):
    """The input graph is outside the supported classes (use force to override)."""
