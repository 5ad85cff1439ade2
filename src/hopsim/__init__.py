"""hopsim: deterministic simulator for seed-synchronized IP address hopping."""

__version__ = "0.1.0"
