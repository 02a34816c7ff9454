"""Flat-file ingestion: profiles, row accounting, round trips."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

import pollheap.ingest as ingest
from pollheap.ingest import (
    MAX_RECORDED_ERRORS,
    PROFILES,
    ColumnMapping,
    IngestReport,
    SchemaError,
    load_dataset,
    verify_subtotals,
    write_canonical_tsv,
)
from pollheap.model import MAX_COUNT

from helpers import make_dataset, random_counts
from oracles import load_rows


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestCanonical:
    def test_roundtrip_preserves_everything(self, tmp_path, null_multiregion):
        path = tmp_path / "out.tsv"
        write_canonical_tsv(null_multiregion, path)
        loaded, report = load_dataset(path, "canonical")
        assert report.parsed == len(null_multiregion)
        assert report.skipped == 0
        assert np.array_equal(loaded.registered, null_multiregion.registered)
        assert np.array_equal(loaded.given, null_multiregion.given)
        assert np.array_equal(loaded.cast, null_multiregion.cast)
        assert np.array_equal(loaded.leader, null_multiregion.leader)
        assert loaded.station_ids == null_multiregion.station_ids
        assert loaded.region_codes == null_multiregion.region_codes

    def test_default_label_is_file_stem(self, tmp_path, null_2k):
        path = tmp_path / "vote_2024.tsv"
        write_canonical_tsv(null_2k, path)
        loaded, _ = load_dataset(path, "canonical")
        assert loaded.label == "vote_2024"

    def test_missing_column_is_schema_error(self, tmp_path):
        path = _write(tmp_path / "bad.tsv", ["station_id\tregistered", "a\t100"])
        with pytest.raises(SchemaError):
            load_dataset(path, "canonical")

    def test_bad_rows_are_counted_not_fatal(self, tmp_path):
        header = "station_id\tregion_code\tconstituency_id\tregistered\tgiven\tcast\tleader"
        path = _write(
            tmp_path / "mixed.tsv",
            [
                header,
                "s1\tR\t\t200\t150\t148\t90",
                "s2\tR\t\t200\tnot_a_number\t10\t5",
                "s3\tR\t\t300\t250\t240\t120",
            ],
        )
        ds, report = load_dataset(path, "canonical")
        assert len(ds) == 2
        assert report.parsed == 2
        assert report.skipped == 1
        assert report.invalid == 1
        assert any("line 3" in e for e in report.errors)


class TestCountryProfiles:
    def test_es_profile_sums_components(self, tmp_path):
        # given = nulos + blanco + validos, cast = blanco + validos
        path = _write(
            tmp_path / "es.tsv",
            [
                "mesa_id\tprovincia\tcenso\tvotos_nulos\tvotos_blanco\tvotos_validos\tvotos_lider",
                "m1\tP01\t500\t10\t20\t300\t150",
            ],
        )
        ds, report = load_dataset(path, "es")
        assert report.parsed == 1
        assert ds.registered[0] == 500
        assert ds.given[0] == 330
        assert ds.cast[0] == 320
        assert ds.leader[0] == 150
        assert ds.region_codes[0] == "P01"

    def test_de_profile(self, tmp_path):
        path = _write(
            tmp_path / "de.tsv",
            [
                "bezirk_id\tland\twahlberechtigte\tungueltige\tgueltige\tstimmen_sieger",
                "b1\tBY\t900\t15\t600\t240",
            ],
        )
        ds, _ = load_dataset(path, "de")
        assert ds.given[0] == 615
        assert ds.cast[0] == 600
        assert ds.leader[0] == 240

    def test_pl_profile(self, tmp_path):
        path = _write(
            tmp_path / "pl.tsv",
            [
                "obwod_id\twojewodztwo\tuprawnieni\tkarty_wydane\tglosy_wazne\tglosy_lider",
                "o1\tMA\t1000\t700\t690\t350",
            ],
        )
        ds, _ = load_dataset(path, "pl")
        assert ds.given[0] == 700
        assert ds.cast[0] == 690

    def test_profile_objects_accepted_directly(self, tmp_path, null_2k):
        path = tmp_path / "c.tsv"
        write_canonical_tsv(null_2k, path)
        ds, _ = load_dataset(path, PROFILES["canonical"])
        assert len(ds) == len(null_2k)

    def test_unknown_profile_name(self, tmp_path, null_2k):
        path = tmp_path / "c.tsv"
        write_canonical_tsv(null_2k, path)
        with pytest.raises((KeyError, SchemaError, ValueError)):
            load_dataset(path, "xx")


class TestMappingValidation:
    def test_required_field_must_resolve(self):
        with pytest.raises(SchemaError):
            ColumnMapping(columns={"station_id": "id"})

    def test_field_cannot_be_mapped_twice(self):
        with pytest.raises(SchemaError):
            ColumnMapping(
                columns={
                    "station_id": "id",
                    "registered": "v",
                    "given": "g",
                    "cast": "b",
                    "leader": "l",
                },
                derived={"cast": ("x", "y")},
            )

    def test_unknown_canonical_field_rejected(self):
        with pytest.raises(SchemaError):
            ColumnMapping(columns={"banana": "b"})


class TestSubtotals:
    def test_matching_reference_has_no_discrepancies(self):
        ds = make_dataset(
            [200, 300, 400],
            [150, 200, 300],
            [148, 195, 295],
            [90, 100, 200],
            regions=["A", "A", "B"],
        )
        ref = {
            "A": {"registered": 500, "given": 350, "cast": 343, "leader": 190},
            "B": {"registered": 400, "given": 300, "cast": 295, "leader": 200},
        }
        assert verify_subtotals(ds, ref) == []

    def test_mismatch_reported_per_field(self):
        ds = make_dataset([200], [150], [148], [90], regions=["A"])
        ref = {"A": {"registered": 200, "given": 151}}
        disc = verify_subtotals(ds, ref)
        assert len(disc) == 1
        d = disc[0]
        assert d.region_code == "A"
        assert d.field == "given"
        assert d.expected == 151
        assert d.actual == 150


def test_roundtrip_random_datasets(tmp_path):
    rng = np.random.default_rng(5)
    v, g, b, l = random_counts(rng, 40)
    regions = [f"R{int(x):02d}" for x in rng.integers(0, 4, size=40)]
    ds = make_dataset(v, g, b, l, regions=regions)
    path = tmp_path / "rt.tsv"
    write_canonical_tsv(ds, path)
    loaded, _ = load_dataset(path, "canonical", label=ds.label)
    assert loaded.station_ids == ds.station_ids
    assert np.array_equal(loaded.leader, ds.leader)
    assert loaded.region_codes == ds.region_codes


CANONICAL_HEADER = "station_id\tregion_code\tconstituency_id\tregistered\tgiven\tcast\tleader"
ES_HEADER = "mesa_id\tprovincia\tcenso\tvotos_nulos\tvotos_blanco\tvotos_validos\tvotos_lider"


class TestCountBound:
    def test_counts_above_max_count_are_invalid_rows(self, tmp_path):
        path = _write(
            tmp_path / "big.tsv",
            [
                CANONICAL_HEADER,
                "s1\tR\t\t200\t150\t148\t90",
                "s2\tR\t\t99999999999999999999\t150\t148\t90",
                f"s3\tR\t\t{2**63 - 1}\t150\t148\t90",
                f"s4\tR\t\t{MAX_COUNT + 1}\t150\t148\t90",
                f"s5\tR\t\t{MAX_COUNT}\t150\t148\t90",
                "s6\tR\t\t000000000000000000300\t150\t148\t90",
            ],
        )
        ds, report = load_dataset(path, "canonical")
        assert ds.station_ids == ("s1", "s5", "s6")
        assert ds.registered.tolist() == [200, MAX_COUNT, 300]
        assert report.parsed == 3
        assert report.invalid == 3
        assert [e.split(":")[0] for e in report.errors] == ["line 3", "line 4", "line 5"]
        assert all(f"above {MAX_COUNT}" in e for e in report.errors)

    def test_derived_sum_above_max_count_is_an_invalid_row(self, tmp_path):
        half = MAX_COUNT // 2 + 1
        path = _write(
            tmp_path / "es.tsv",
            [
                ES_HEADER,
                f"m1\tP\t{MAX_COUNT}\t0\t{half}\t{half}\t10",
                f"m2\tP\t{MAX_COUNT}\t0\t{half - 1}\t{half - 1}\t10",
            ],
        )
        ds, report = load_dataset(path, "es")
        assert ds.station_ids == ("m2",)
        assert ds.given.tolist() == [2 * half - 2]
        assert report.errors == [f"line 2: given sum above {MAX_COUNT}: {2 * half}"]


# Cells chosen to hit every branch of the row checks: padding (accepted
# after strip), signs, separators, non-ASCII digits and whitespace,
# empty cells, counts at and around MAX_COUNT, leading zeros.
_COUNT_CELLS = st.one_of(
    st.integers(0, 3000).map(str),
    st.sampled_from(
        [
            "", " ", "\xa0", " 12", "12 ", "+5", "-5", "1_000", "1e3", "\u0663",
            "12x", "0007", "00000000000000000000042", str(MAX_COUNT), str(MAX_COUNT + 1),
            str(MAX_COUNT // 2 + 1), "99999999999999999999", str(2**63 - 1),
        ]
    ),
)
_ID_CELLS = st.sampled_from(["a", "b", "c", " a ", "d", "", " "])
_TEXT_CELLS = st.sampled_from(["", " ", "R1", " R2 ", "\xa0"])
_BLANK_CELLS = st.lists(st.sampled_from(["", " ", "\xa0", "\u3000"]), max_size=9)


@st.composite
def _export_rows(draw):
    """Tab-separated lines of seven cells: full, short and blank rows."""
    kind = draw(st.sampled_from(["full", "full", "full", "short", "blank"]))
    if kind == "blank":
        return "\t".join(draw(_BLANK_CELLS))
    cells = [draw(_ID_CELLS), draw(_TEXT_CELLS)]
    cells += [draw(_COUNT_CELLS) for _ in range(5)]
    if kind == "short":
        cells = cells[: draw(st.integers(1, 6))]
    return "\t".join(cells)


_NO_HEADER = ColumnMapping(
    has_header=False,
    columns={"station_id": 0, "constituency_id": 1, "registered": 2, "leader": 6},
    derived={"given": (3, 4, 5), "cast": (5,)},
)


def _oracle(path, mapping):
    return load_rows(
        path,
        mapping.delimiter,
        mapping.has_header,
        lambda header, width: ingest._resolve_indices(mapping, header, width),
        MAX_COUNT,
        MAX_RECORDED_ERRORS,
    )


@pytest.fixture(scope="module")
def export_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("exports")


@pytest.mark.parametrize("block_rows", [1, 3, ingest._BLOCK_ROWS])
@settings(max_examples=60, deadline=None)
@hgiven(
    profile=st.sampled_from(["canonical", "es", "headerless"]),
    leading_blank=st.integers(0, 2),
    rows=st.lists(_export_rows(), max_size=40),
    repeats=st.integers(1, 4),
)
def test_block_loader_matches_row_oracle_property(
    export_dir, block_rows, profile, leading_blank, rows, repeats
):
    # repeating the rows makes duplicates (of accepted and of rejected
    # rows alike) and often more than MAX_RECORDED_ERRORS bad rows
    header = {"canonical": [CANONICAL_HEADER], "es": [ES_HEADER], "headerless": []}[profile]
    lines = [" "] * leading_blank + header + rows * repeats
    path = export_dir / f"{profile}.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    mapping = _NO_HEADER if profile == "headerless" else PROFILES[profile].mapping
    source = ingest.CountryProfile(name=profile, mapping=mapping)

    try:
        want = _oracle(path, mapping)
    except SchemaError as exc:
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            with pytest.raises(SchemaError, match="^" + re.escape(str(exc)) + "$"):
                load_dataset(path, source)
        return
    with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
        ds, report = load_dataset(path, source)

    assert ds.station_ids == tuple(want["ids"])
    assert ds.region_codes == tuple(want["regions"])
    assert ds.constituency_ids == tuple(want["constituencies"])
    for name, values in want["counts"].items():
        column = getattr(ds, name)
        assert column.dtype == np.int64
        assert column.tolist() == values
    expected = IngestReport(
        path=str(path),
        profile=profile,
        parsed=want["parsed"],
        skipped=want["skipped"],
        invalid=want["invalid"],
        errors=want["errors"],
    )
    assert report.to_json() == expected.to_json()

