"""Build script for the optional compiled kernels (cosine distance pass,
Ward merge loop, MF SGD epoch, kNN query, the build of cobar's cluster
statistics, cobar's prediction over them, the rating-file tokenizer and
the CSR layout, one C extension).

The package works without the extension: cobar.kernels falls back to the
pure numpy implementations when the compiled module is missing.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the extension if possible, fall back to pure Python otherwise."""

    def finalize_options(self):
        super().finalize_options()
        # compile the checkout's source every time: a build that trusts file
        # times can reuse an extension built from other source, and copy it
        # into src/ on an in-place build
        self.force = True

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            warnings.warn(f"compiled kernel skipped ({exc}); using pure-Python fallback")

    def build_extension(self, ext):
        # the kernels promise the numpy backend's bits, so a*b + c must not
        # be fused into one rounding (gcc fuses by default where FMA exists);
        # the cosine pass and the Ward loop run a second POSIX thread; each
        # function and loop starts a 64-byte line, so an edit to one loop
        # does not move the others across lines (on x86-64 with gcc 12, a
        # shift of 16 to 336 bytes made the cosine pass or the kNN query up
        # to 8% slower with the same instructions)
        if self.compiler.compiler_type == "unix":
            ext.extra_compile_args = [*ext.extra_compile_args, "-ffp-contract=off", "-pthread",
                                      "-falign-functions=64", "-falign-loops=64"]
            ext.extra_link_args = [*ext.extra_link_args, "-pthread"]
        super().build_extension(ext)


setup(
    ext_modules=[Extension("cobar.kernels._compiled", ["src/cobar/kernels/_compiled.c"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
