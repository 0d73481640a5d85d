"""Group-sparse MLP training and structural node pruning.

Train sigmoid networks whose loss includes a group penalty on per-node
weight vectors, watch unnecessary hidden nodes collapse toward zero norm,
then remove them outright with no retraining step. The package root
re-exports what a train-then-prune script needs; everything else is
imported from its module (network, trainer, pruning, ...).
"""

from .config import parse_config
from .network import init_network
from .pruning import apply_mask, make_mask
from .regularization import Mode, group_norms
from .trainer import evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Mode",
    "apply_mask",
    "evaluate",
    "group_norms",
    "init_network",
    "make_mask",
    "parse_config",
    "train",
    "__version__",
]
