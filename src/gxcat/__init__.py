"""gxcat: exact computations with graded fusion rings, group cohomology,
twisted doubles, and pointed crossed braided data.

Each public name is imported from the module that defines it (README's
library tour lists them), so ``import gxcat`` loads no submodule and no
numpy.
"""

__version__ = "0.1.0"
