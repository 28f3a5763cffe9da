"""stratopt: singular parameter spaces as polynomial zero sets, their smooth
deformations, and gradient-descent learning dynamics on chart coordinates."""

__version__ = "0.1.0"
