"""Multichannel speech separation toolkit.

Spatial-clustering time-frequency masks, recurrent per-channel mask
enhancement, cross-channel fusion, and mask-driven MVDR beamforming with
mask post filtering, plus a synthetic scene simulator and projection-based
separation scoring.
"""

from .beamformer import (
    BeamformerWeights,
    CovarianceField,
    beamform,
    estimate_covariances,
    mvdr_weights,
)
from .enhancer import (
    EnhancerConfig,
    EnhancerModel,
    TrainBatch,
    TrainSettings,
    build_batch,
    enhance_channels,
    forward,
    init_model,
    load_model,
    save_model,
    train,
)
from .errors import DataError, NumericalError, StageError
from .fusion import CombineMode, combine_masks, fuse_channels
from .metrics import EvalScores, bss_eval, decompose, seg_snr
from .pipeline import (
    EnhanceResult,
    PipelineConfig,
    enhance,
    evaluate_scene,
    run_experiment,
)
from .scene import (
    SceneRender,
    SceneSpec,
    SourceSpec,
    fractional_delay,
    ideal_masks,
    load_render,
    random_scene_spec,
    render_scene,
    save_render,
    speechlike_signal,
)
from .signal import (
    FeatureStats,
    MaskGrid,
    MultichannelWaveform,
    Spectrogram,
    StftConfig,
    Waveform,
    apply_mask,
    istft,
    load_mask,
    logit_mask,
    read_wav,
    save_mask,
    stft,
    to_log_features,
    write_wav,
)
from .spatial_em import (
    MesslConfig,
    MesslParams,
    MesslResult,
    binarize,
    default_delay_grid,
    run_em,
)
from .targets import TargetContext, TargetKind, compute_target, loss

__version__ = "0.1.0"
