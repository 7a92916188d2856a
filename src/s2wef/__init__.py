"""Federated-learning free-rider simulation and detection toolkit."""

# The benchmark's set-up timing calls these three through the package root.
from .fedsim import make_dataset, partition_iid
from .nn import init_model

__version__ = "0.1.0"
