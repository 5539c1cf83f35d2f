"""Exception types shared across the package."""


class VinefabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(VinefabError):
    """A value, file, or data structure violates a documented invariant."""


class SingularityError(ValidationError):
    """A joint angle sits on (or past) the fold-model singularity at 180 degrees."""


class InfeasibleLinkError(VinefabError):
    """A link is too short to host the folds of its end joints."""

    def __init__(self, link_index, a, min_feasible):
        self.link_index = link_index
        self.a = a
        self.min_feasible = min_feasible
        super().__init__(
            f"link {link_index}: length {a:.6g} mm <= minimum feasible "
            f"{min_feasible:.6g} mm required by its end folds"
        )


class InversionError(VinefabError):
    """A fabrication plan is inconsistent with every joint angle in [0, pi)."""


class MissingMarkerError(VinefabError):
    """A required optical marker role is absent from the record set."""

    def __init__(self, joint, role):
        self.joint = joint
        self.role = role
        super().__init__(f"joint {joint}: missing '{role}' marker")


class DegenerateGeometryError(VinefabError):
    """Marker geometry too degenerate to define directions or planes."""


class DegenerateDataError(VinefabError):
    """A statistical routine received data it cannot test (e.g. zero variance)."""

