"""Suite-wide pytest hooks."""
import shutil
import tempfile


def pytest_configure(config):
    # hypothesis caches unicode tables and the constants of local modules in
    # its home directory, ./.hypothesis unless set, and its pytest plugin
    # fills that cache while collecting; point it at a directory removed at
    # the end of the session
    try:
        from hypothesis import configuration
    except ImportError:
        return
    home = tempfile.mkdtemp(prefix="qlimits-hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    configuration.set_hypothesis_home_dir(home)
