"""View-decoupled person re-identification on a small numpy autodiff core."""

import os as _os

# SECAP_THREADS caps BLAS pools; must land before numpy's first import
_threads = _os.environ.get("SECAP_THREADS")
if _threads and _threads.isdigit():
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .data import (
    Manifest,
    SampleRecord,
    SynthConfig,
    build_protocol,
    generate_synthetic,
    pk_sample,
    read_manifest,
    select_queries,
    split_identities,
    write_manifest,
)
from .encoder import Encoder, EncoderConfig
from .errors import (
    CheckpointError,
    ConfigurationError,
    ContractError,
    DimensionError,
    NumericError,
    ParseError,
    ProtocolError,
)
from .evaluate import (
    EvalReport,
    FeatureSet,
    cmc_map,
    distance_matrix,
    extract_features,
    oracle_cmc_map,
)
from .gradcheck import NoiseSource, check_parameter_gradients, finite_diff_check
from .losses import LossWeights
from .model import ModelConfig, SeCapModel
from .optim import SGD, cosine_lr
from .storage import (
    load_checkpoint,
    load_image,
    load_rten,
    save_checkpoint,
    save_rten,
)
from .tensor import Parameter, Tensor, backward, recording
from .train import TrainConfig, TrainResult, held_out_orthogonality, model_from_checkpoint, train

__version__ = "0.1.0"
