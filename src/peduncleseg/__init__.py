"""Point-level sweet pepper peduncle detection.

Colour (HSV) and local-geometry (point feature histogram) descriptors feed a
from-scratch SMO-trained SVM that labels every point of a 3D crop scan as
fruit body or peduncle.  Synthetic labelled scenes, PR/AUC evaluation and a
CLI round out the pipeline.
"""

from .cloud_io import (CloudFormatError, DatasetManifest, ManifestEntry,
                       ManifestError, PointCloud, UNLABELLED,
                       read_cloud, read_manifest, write_cloud, write_manifest)
from .config import ConfigError, PipelineConfig, load_pipeline_config
from .evaluation import (EvalReport, EvaluationError, PrCurve, SplitSpec,
                         SweepResult, auc, evaluate, pr_curve, split_dataset,
                         sweep)
from .features import (FeatureMatrix, PfhHistogram, compute_pfh,
                       extract_features, rgb_to_hsv, select_features)
from .geometry import (NormalParams, NormalSet, SpatialIndex, build_index,
                       estimate_normals)
from .learn import (KernelSpec, ModelFormatError, ScalingStats, SvmModel,
                    TrainConfig, TrainingError, decision_scores, load_model,
                    predict_parallel, save_model, train_svm)
from .pipeline import assemble_training_matrix, pooled_features, scene_features
from .preprocess import (OutlierParams, VoxelParams,
                         remove_statistical_outliers, voxel_downsample)
from .synth import (DatasetRequest, SceneSpec, SceneSpecError, generate_scene,
                    load_scene_request, scene_for_colour)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
