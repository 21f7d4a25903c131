"""Attribute-classifier fusion for object recognition under environment-dependent reliability.

The pipeline is two-threshold calibration, ternary classification, the
posterior fold and the MAP decision. The modules are the import surface;
each holds one part:

- ``attrfuse.catalog``: object catalogs, their priors and the prior statistics the later stages read.
- ``attrfuse.classifier``: per-bin two-threshold calibration, and saving and loading the models.
- ``attrfuse.simulator``: scenarios, score draws and batched ternary classification.
- ``attrfuse.streams``: the seeded Philox streams: every harness's key layout, one generator per run and key, and the tie-pick rule.
- ``attrfuse.fusion``: the decision engine: adopted-outcome counts, their posterior fold and the tie-broken MAP decision.
- ``attrfuse.theory``: the predictive-value floors under which the decision is guaranteed, and the certificate that checks them.
- ``attrfuse.experiments``: the Monte Carlo harnesses of the three experiments and the theorem suites, with CSV output.
- ``attrfuse.cli``: the ``attrfuse`` command: ``calibrate``, ``fuse``, ``exp1`` to ``exp3`` and ``theorems``.
- ``attrfuse._fields``: the JSON input rules the three loaders share: the file reader, the field reader, the converters.
"""

from attrfuse._version import __version__
