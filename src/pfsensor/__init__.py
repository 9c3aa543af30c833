"""Transfer-operator sensor placement for indoor contaminant monitoring
under uncertain flow conditions."""

__version__ = "0.1.0"
