"""congruence_lab: exact determinant/permanent experiments over Z and Z/m."""

__version__ = "0.1.0"
