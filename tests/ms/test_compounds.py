"""Unit tests for the compound library."""

import numpy as np
import pytest

from repro.ms.compounds import (
    DEFAULT_TASK_COMPOUNDS,
    Compound,
    CompoundLibrary,
    default_library,
)


class TestCompound:
    def test_base_peak(self):
        compound = Compound("X", "X", 10.0, ((5.0, 30.0), (7.0, 100.0)))
        assert compound.base_peak_mz == 7.0

    def test_normalized_lines_scale_to_one(self):
        compound = Compound("X", "X", 10.0, ((5.0, 50.0), (7.0, 100.0)))
        lines = dict(compound.normalized_lines())
        assert lines[7.0] == 1.0
        assert lines[5.0] == 0.5

    def test_line_arrays_normalized(self):
        compound = default_library().get("N2")
        mz, intensity = compound.line_arrays()
        assert intensity.max() == 1.0
        assert mz.shape == intensity.shape

    def test_rejects_empty_lines(self):
        with pytest.raises(ValueError, match="at least one line"):
            Compound("X", "X", 1.0, ())

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            Compound("X", "X", 1.0, ((-1.0, 10.0),))
        with pytest.raises(ValueError):
            Compound("X", "X", 1.0, ((5.0, 0.0),))


class TestLibrary:
    def test_default_library_has_all_task_compounds(self):
        library = default_library()
        for name in DEFAULT_TASK_COMPOUNDS:
            assert name in library

    def test_default_library_size(self):
        assert len(default_library()) >= 14  # paper used 14 mixtures of gases

    def test_case_insensitive_lookup(self):
        library = default_library()
        assert library.get("co2").name == "CO2"
        assert "h2o" in library

    def test_unknown_compound_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known"):
            default_library().get("Xe")

    def test_duplicate_add_rejected(self):
        library = default_library()
        with pytest.raises(ValueError, match="already registered"):
            library.add(Compound("N2", "N2", 28.0, ((28.0, 100.0),)))

    def test_iteration_yields_compounds(self):
        names = {c.name for c in default_library()}
        assert "Ar" in names


class TestChemistry:
    """Sanity checks that the hard-coded patterns are physically plausible."""

    def test_base_peaks_at_molecular_ion_for_simple_gases(self):
        library = default_library()
        expectations = {"N2": 28, "O2": 32, "Ar": 40, "CO2": 44, "H2O": 18}
        for name, mz in expectations.items():
            assert library.get(name).base_peak_mz == mz

    def test_no_fragment_heavier_than_isotope_envelope(self):
        # No fragment should exceed the molecular weight by more than ~2 m/z
        # (isotope peaks).
        for compound in default_library():
            heaviest = max(mz for mz, _ in compound.lines)
            assert heaviest <= compound.molecular_weight + 2.5

    def test_n2_and_co_overlap_at_28(self):
        # The classic m/z-28 interference motivates multivariate analysis.
        library = default_library()
        assert library.get("N2").base_peak_mz == library.get("CO").base_peak_mz
