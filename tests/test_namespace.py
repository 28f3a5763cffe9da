import pkgutil
import types

import stratopt
import stratopt.stratify


def test_package_namespace_is_its_modules():
    # the function stratify.stratify used to shadow the module of that name
    assert isinstance(stratopt.stratify, types.ModuleType)
    modules = {info.name for info in pkgutil.iter_modules(stratopt.__path__)}
    public = {name for name in vars(stratopt) if not name.startswith("_")}
    assert public <= modules
    assert all(isinstance(getattr(stratopt, name), types.ModuleType) for name in public)
    assert stratopt.__version__ == "0.1.0"
