"""plantrecon: reconstructs the relational skeleton of a discrete
production plant from PLC code, IO signal traces and material position
traces, and exports it as an AutomationML file.

The package is organized along the pipeline:

``graph``      property-graph substrate with containment and persistence
``plc``        PLC project XML model, reference resolution, call graph
``grouping``   rule-based functional grouping
``traces``     IO/RTLS ingestion, event detection, position estimation
``dtw``        dynamic time warping and 1-NN classification
``clustering`` seeded k-means alternative
``dynamics``   dynamics analysis orchestration, physical groups
``mining``     whole-unit template mining (MNI support), template marking
``aml``        AutomationML/CAEX export, import, validation
``synth``      synthetic plant generator
``groundtruth`` the generator's ground truth and its JSON file
``metrics``    ARI, pairwise F1, template recovery and precision, evaluation
``pipeline``   stage wiring; ``cli`` is the command-line front end
"""

from .graph import (
    Edge,
    EdgeKind,
    Node,
    NodeKind,
    PropertyGraph,
    Provenance,
    load_graph,
    merge,
    save_graph,
)

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "EdgeKind",
    "Node",
    "NodeKind",
    "PropertyGraph",
    "Provenance",
    "load_graph",
    "merge",
    "save_graph",
    "__version__",
]
