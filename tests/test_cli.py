"""Command-line interface: subcommands, outputs, and exit codes."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affret import (
    BuildConfig,
    CaseBaseFormatError,
    build_index,
    compute_query_affordance,
    load_case_base,
    rerank,
    retrieve_top_k,
    revise_case_affordance,
    save_case_base,
)
from affret.cli import main

from conftest import write_corpus

LEXICON = "Beaches\tbeach,sand\nSpirituality\ttemple\nMiscellaneous\t*\n"

QUERIES = """\
<top>
<num> Q1 </num>
<title> beach holiday </title>
<desc> sunny beach destinations </desc>
</top>
<top>
<num> Q2 </num>
<title> temple visit </title>
</top>
"""


def write_workspace(tmp_path):
    write_corpus(
        tmp_path / "corpus",
        {
            "a.html": "<p>beach sand beach all day</p>",
            "b.html": "<p>temple gardens and a quiet shrine</p>",
            "c.html": "<div>sand dunes</div><p>beach walk</p>",
        },
    )
    (tmp_path / "lexicon.tsv").write_text(LEXICON, encoding="utf-8")
    (tmp_path / "queries.txt").write_text(QUERIES, encoding="utf-8")
    (tmp_path / "qrels.tsv").write_text("Q1\ta.html\t1\nQ2\tb.html\t1\n", encoding="utf-8")
    return tmp_path


@pytest.fixture
def workspace(tmp_path):
    return write_workspace(tmp_path)


def build_args(ws, **extra):
    args = [
        "build",
        "--corpus", str(ws / "corpus"),
        "--lexicon", str(ws / "lexicon.tsv"),
        "--out", str(ws / "cb.jsonl"),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def refuse_listing(monkeypatch, directory) -> PermissionError:
    """Make ``os.scandir`` refuse ``directory``, as a mode without read access would for any user but root."""
    denied = PermissionError(13, "Permission denied", str(directory))
    scandir = os.scandir

    def refusing_scandir(path="."):
        if os.fspath(path) == str(directory):
            raise denied
        return scandir(path)

    monkeypatch.setattr(os, "scandir", refusing_scandir)
    return denied


class TestBuild:
    def test_happy_path(self, workspace):
        assert main(build_args(workspace)) == 0
        assert (workspace / "cb.jsonl").exists()
        lines = (workspace / "cb.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 3 + 2  # header, cases, stats, lexicon

    def test_missing_corpus_is_input_error(self, workspace, capsys):
        args = build_args(workspace)
        args[args.index("--corpus") + 1] = str(workspace / "nowhere")
        assert main(args) == 1
        assert "corpus directory not found" in capsys.readouterr().err

    def test_missing_lexicon_is_input_error(self, workspace):
        args = build_args(workspace)
        args[args.index("--lexicon") + 1] = str(workspace / "absent.tsv")
        assert main(args) == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            ("Beaches beach", "line 1: expected 'name<TAB>terms'"),
            ("  \tbeach", "line 1: empty topic name"),
            ("Beaches\t!!!", "line 1: topic 'Beaches': term '!!!' has no word characters"),
            ("Beaches\tbeach\nBeaches\tsand", "duplicate topic name: 'Beaches'"),
        ],
        ids=["no-tab", "no-name", "no-word-characters", "duplicate-topic"],
    )
    def test_lexicon_format_error_names_the_file(self, workspace, capsys, line, message):
        bad = workspace / "badlex.tsv"
        bad.write_text(line + "\n", encoding="utf-8")
        args = build_args(workspace)
        args[args.index("--lexicon") + 1] = str(bad)
        capsys.readouterr()
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_bad_tau_is_input_error(self, workspace):
        assert main(build_args(workspace, tau="1.5")) == 1

    def test_custom_stop_words_honored(self, workspace):
        (workspace / "stops.txt").write_text("beach\nsand\ntemple\n", encoding="utf-8")
        assert main(build_args(workspace, stopwords=workspace / "stops.txt")) == 0
        content = (workspace / "cb.jsonl").read_text(encoding="utf-8")
        assert '"beach"' not in content.split("\n")[1]

    def test_page_the_parser_rejects_is_a_logged_skip(self, tmp_path, caplog):
        good = {"a.html": "<p>beach sand beach all day</p>"}
        alone, marked = tmp_path / "alone", tmp_path / "marked"
        for ws, pages in ((alone, good), (marked, {**good, "b.html": "<p>temple<![foo[ x ]]> shrine</p>"})):
            write_corpus(ws / "corpus", pages)
            (ws / "lexicon.tsv").write_text(LEXICON, encoding="utf-8")
        assert main(build_args(alone)) == 0
        with caplog.at_level(logging.WARNING, logger="affret"):
            assert main(build_args(marked)) == 0
        assert [r.getMessage() for r in caplog.records] == [
            "skipping b.html: markup the HTML parser rejects (unknown status keyword 'foo' in marked section)"
        ]
        # the skipped page adds no df and no case, so the other page's case keeps its bytes
        assert (marked / "cb.jsonl").read_bytes() == (alone / "cb.jsonl").read_bytes()

    def test_file_name_that_is_not_utf8_is_a_logged_skip(self, tmp_path, caplog):
        page = "<p>beach sand beach all day</p>"
        alone, named = tmp_path / "alone", tmp_path / "named"
        for ws in (alone, named):
            write_corpus(ws / "corpus", {"a.html": page})
            (ws / "lexicon.tsv").write_text(LEXICON, encoding="utf-8")
        name = os.fsdecode(b"caf\xe9.html")
        if name != "caf\udce9.html":
            pytest.skip(f"file names decode as {sys.getfilesystemencoding()}, not as UTF-8")
        try:
            (named / "corpus" / name).write_text(page, encoding="utf-8")
        except OSError as exc:
            pytest.skip(f"the file system refuses a file name that is not UTF-8 ({exc})")
        assert main(build_args(alone)) == 0
        with caplog.at_level(logging.WARNING, logger="affret"):
            assert main(build_args(named)) == 0
        (message,) = [r.getMessage() for r in caplog.records]
        assert message.startswith("skipping caf\udce9.html: name is not UTF-8 (")
        assert (named / "cb.jsonl").read_bytes() == (alone / "cb.jsonl").read_bytes()

    def test_unlistable_subdirectory_is_a_logged_skip(self, tmp_path, caplog, monkeypatch):
        page = "<p>beach sand beach all day</p>"
        alone, nested = tmp_path / "alone", tmp_path / "nested"
        for ws, pages in ((alone, {"a.html": page}), (nested, {"a.html": page, "sub/b.html": "<p>temple</p>"})):
            write_corpus(ws / "corpus", pages)
            (ws / "lexicon.tsv").write_text(LEXICON, encoding="utf-8")
        denied = refuse_listing(monkeypatch, nested / "corpus" / "sub")
        assert main(build_args(alone)) == 0
        with caplog.at_level(logging.WARNING, logger="affret"):
            assert main(build_args(nested)) == 0
        assert [r.getMessage() for r in caplog.records] == [f"skipping sub/: {denied}"]
        assert (nested / "cb.jsonl").read_bytes() == (alone / "cb.jsonl").read_bytes()

    def test_unlistable_corpus_is_input_error(self, workspace, capsys, monkeypatch):
        denied = refuse_listing(monkeypatch, workspace / "corpus")
        assert main(build_args(workspace)) == 1
        assert capsys.readouterr().err == f"error: cannot list corpus directory {workspace / 'corpus'}: {denied}\n"


class TestQuery:
    def test_prints_ranked_table(self, workspace, capsys):
        main(build_args(workspace))
        code = main(["query", "--cb", str(workspace / "cb.jsonl"), "--text", "beach trip"])
        assert code == 0
        out = capsys.readouterr().out
        assert "a.html" in out
        assert "doc_id" in out

    def test_no_matches_reported_cleanly(self, workspace, capsys):
        main(build_args(workspace))
        code = main(["query", "--cb", str(workspace / "cb.jsonl"), "--text", "zzz qqq"])
        assert code == 0
        assert "no matching cases" in capsys.readouterr().out

    def test_stop_word_only_query_is_input_error(self, workspace):
        main(build_args(workspace))
        assert main(["query", "--cb", str(workspace / "cb.jsonl"), "--text", "the of"]) == 1

    def test_missing_case_base_is_input_error(self, workspace):
        assert main(["query", "--cb", str(workspace / "no.jsonl"), "--text", "beach"]) == 1

    def test_overflowing_weight_is_a_format_error(self, workspace, capsys):
        # 1e999 loads as inf; 1.5e308 is finite, but "beach" is in 2 of the
        # 3 cases, so its selection idf is below 1 and the tf it decodes is not
        for value, message in (
            ("1e999", "non-finite prob_desc value"),
            ("1.5e308", "case base weight of 'beach' is too large to recover its tf"),
        ):
            assert main(build_args(workspace)) == 0
            path = workspace / "cb.jsonl"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            case = json.loads(lines[1])
            at = [term for term, _ in case["prob_desc"]].index("beach")
            case["prob_desc"][at][1] = "@value@"
            lines[1] = json.dumps(case, sort_keys=True).replace('"@value@"', value) + "\n"
            path.write_text("".join(lines), encoding="utf-8")
            capsys.readouterr()
            assert main(["query", "--cb", str(path), "--text", "beach"]) == 1
            assert message in capsys.readouterr().err


class TestEval:
    def eval_args(self, ws, out="report", **extra):
        args = [
            "eval",
            "--cb", str(ws / "cb.jsonl"),
            "--queries", str(ws / "queries.txt"),
            "--out", str(ws / out),
        ]
        for key, value in extra.items():
            args += [f"--{key.replace('_', '-')}", str(value)]
        return args

    def test_writes_report_files(self, workspace):
        main(build_args(workspace))
        assert main(self.eval_args(workspace)) == 0
        assert (workspace / "report" / "rows.csv").exists()
        assert (workspace / "report" / "summary.csv").exists()
        echo = json.loads((workspace / "report" / "run_config.json").read_text(encoding="utf-8"))
        assert echo["eta"] == 0.0

    def test_config_echo_takes_build_dials_from_the_case_base(self, workspace):
        assert main(build_args(workspace, k_terms=5, tau=0.3)) == 0
        assert main(self.eval_args(workspace, k=3, alpha=0.5, eta=0.25)) == 0
        echo = json.loads((workspace / "report" / "run_config.json").read_text(encoding="utf-8"))
        assert (echo["k_terms"], echo["tau"]) == (5, 0.3)
        assert (echo["k_retrieve"], echo["alpha"], echo["eta"]) == (3, 0.5, 0.25)

    def test_qrels_add_precision_columns(self, workspace):
        main(build_args(workspace))
        assert main(self.eval_args(workspace, out="judged", qrels=workspace / "qrels.tsv")) == 0
        header = (workspace / "judged" / "summary.csv").read_text(encoding="utf-8").splitlines()[0]
        assert "precision_at_k_final" in header

    def test_use_desc_flag_accepted(self, workspace):
        main(build_args(workspace))
        args = self.eval_args(workspace, out="desc") + ["--use-desc"]
        assert main(args) == 0

    def test_eta_run_succeeds(self, workspace):
        main(build_args(workspace))
        assert main(self.eval_args(workspace, out="fb", eta="0.5")) == 0

    def test_malformed_queries_file_is_input_error(self, workspace):
        main(build_args(workspace))
        (workspace / "bad.txt").write_text("not a topic file", encoding="utf-8")
        args = self.eval_args(workspace)
        args[args.index("--queries") + 1] = str(workspace / "bad.txt")
        assert main(args) == 1


class TestStopWordMismatch:
    """A case base queried with a stop list that drops terms the build kept is rejected, not answered."""

    @pytest.fixture
    def built(self, workspace):
        # the build keeps the default stop words of a.html ("all") and b.html ("and", "a")
        (workspace / "zzz.txt").write_text("zzz\n", encoding="utf-8")
        assert main(build_args(workspace, stopwords=workspace / "zzz.txt")) == 0
        return workspace

    def run_args(self, ws, command, *extra):
        cb = str(ws / "cb.jsonl")
        if command == "query":
            return ["query", "--cb", cb, "--text", "beach and temple", *extra]
        return ["eval", "--cb", cb, "--queries", str(ws / "queries.txt"), "--out", str(ws / "report"), *extra]

    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_default_list_is_rejected(self, built, capsys, command):
        capsys.readouterr()
        assert main(self.run_args(built, command)) == 1
        assert capsys.readouterr().err == (
            f"error: {built / 'cb.jsonl'}: case base was built with a different stop-word list; it indexes"
            " the active stop words ['a', 'all', 'and'], so pass --stopwords with the list it was built with\n"
        )
        assert not (built / "report").exists()

    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_the_list_it_was_built_with_is_served(self, built, capsys, command):
        assert main(self.run_args(built, command, "--stopwords", str(built / "zzz.txt"))) == 0

    def test_names_at_most_five_words(self, workspace, capsys):
        write_corpus(workspace / "corpus", {"d.html": "<p>it is in the shade of a tree by the sea and to the beach</p>"})
        (workspace / "zzz.txt").write_text("zzz\n", encoding="utf-8")
        assert main(build_args(workspace, stopwords=workspace / "zzz.txt")) == 0
        capsys.readouterr()
        assert main(self.run_args(workspace, "query")) == 1
        assert "the active stop words ['a', 'all', 'and', 'by', 'in'], so" in capsys.readouterr().err


class _Raw(str):
    """A record that ``rewrite_records`` writes as it stands, not as JSON."""


def rewrite_records(path, edit):
    """Rewrite the saved case base at ``path`` after ``edit`` changes its list of records."""
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edit(records)
    lines = (r if isinstance(r, _Raw) else json.dumps(r, sort_keys=True) for r in records)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _drop_df(records):
    del records[-2]["corpus_stats"]["df"]


def _list_df(records):
    records[-2]["corpus_stats"]["df"] = [["beach", 2]]


def _nameless_topic(records):
    del records[-1]["lexicon"]["topics"][0]["name"]


def _list_doc_id(records):
    records[1]["doc_id"] = ["a.html"]


def _surrogate_doc_id(records):
    # json.dumps writes it as the escape "\\udce9", which loads as a lone surrogate
    records[2]["doc_id"] = "caf\udce9.html"


def _surrogate_lexicon_term(records):
    records[-1]["lexicon"]["topics"][0]["terms"].append("caf\udce9")


def _empty_prob_desc(records):
    records[1]["prob_desc"] = []


def _set_case_value(key, value):
    def edit(records):
        records[1][key][0] = value

    return edit


def _set_weight(value):
    def edit(records):
        records[1]["prob_desc"][0][1] = value

    return edit


def _set_term(value):
    def edit(records):
        records[1]["prob_desc"][0][0] = value

    return edit


def _set_stats(N=None, **df):
    def edit(records):
        body = records[-2]["corpus_stats"]
        if N is not None:
            body["N"] = N
        body["df"].update(df)

    return edit


def _set_header(key, value):
    def edit(records):
        records[0][key] = value

    return edit


def _set_config(key, value):
    def edit(records):
        records[0]["config"][key] = value

    return edit


def _set_case(key, value):
    def edit(records):
        records[1][key] = value

    return edit


def _set_case_line(value):
    def edit(records):
        records[1] = value

    return edit


def _all_integer_case(records):
    records[1]["prob_desc"] = [[term, 2] for term, _ in records[1]["prob_desc"]]
    records[1]["av"] = [1, 10**400, 0]
    records[1]["av_revised"] = [1, 1, 0]


def _repeated_term(records):
    term, _ = records[1]["prob_desc"][0]
    records[1]["prob_desc"].append([term, 9.0])


def _stats_among_cases(records):
    records.insert(2, records[-2])


def _case_after_lexicon(records):
    records.append(records.pop(1))


def _drop_stats(records):
    del records[-2]


def _deeply_nested_case(records):
    # deeper than any interpreter's recursion limit for decoding JSON
    records[1] = _Raw("[" * 100_000 + "]" * 100_000)


def _wrap_case(before, after):
    """Write the first case record as JSON with ``before`` and ``after`` around it."""

    def edit(records):
        records[1] = _Raw(before + json.dumps(records[1], sort_keys=True) + after)

    return edit


def _doubled_case(records):
    text = json.dumps(records[1], sort_keys=True)
    records[1] = _Raw(text + text)


def _set_topic(index, key, value):
    """Set one field of an embedded lexicon topic, and sign the header with the fingerprint its loose reading gives."""

    def edit(records):
        topics = records[-1]["lexicon"]["topics"]
        topics[index][key] = value
        lines = [f"{t['name']}\t{'*' if t['miscellaneous'] else ','.join(sorted(t['terms']))}\n" for t in topics]
        records[0]["lexicon_fingerprint"] = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()

    return edit


TOPIC_TYPES = "a topic needs a string name, a list of terms and a true or false miscellaneous"


class TestMalformedCaseBase:
    # the workspace case base: header, 3 cases, corpus_stats at line 5, lexicon at line 6
    @pytest.mark.parametrize(
        "edit, message",
        [
            (_drop_df, "malformed corpus_stats at line 5"),
            (_list_df, "malformed corpus_stats at line 5"),
            (_nameless_topic, "malformed lexicon at line 6"),
            (_list_doc_id, "doc_id at line 2 is not a string"),
            (_surrogate_doc_id, "doc_id at line 3 is not UTF-8 (surrogates not allowed)"),
            (_set_header("m", "3"), "header m must be an integer, got '3'"),
            (_set_header("m", 3.0), "header m must be an integer, got 3.0"),
            (_set_header("m", True), "header m must be an integer, got True"),
            (_set_header("N", "3"), "header N must be an integer, got '3'"),
            (_set_header("N", None), "header N must be an integer, got None"),
            (_set_header("N", 999), "header N 999 != corpus_stats N 3"),
            (_empty_prob_desc, "case 'a.html' at line 2 has an empty prob_desc"),
            (_set_stats(N=0), "malformed corpus_stats at line 5"),
            (_set_stats(beach=-2), "malformed corpus_stats at line 5"),
            (_set_stats(beach=3 * 10**20), "malformed corpus_stats at line 5"),
            (_set_stats(N=10**400), "malformed corpus_stats at line 5"),
            (_set_case_value("av", 10**400), "malformed case at line 2 (int too large to convert to float)"),
            (_set_case_value("av_revised", 10**400), "malformed case at line 2 (int too large to convert to float)"),
            (_set_weight(10**400), "malformed case at line 2 (int too large to convert to float)"),
            (_set_term(7), "malformed case at line 2 (sequence item 0: expected str instance, int found)"),
            (_all_integer_case, "malformed case at line 2 (int too large to convert to float)"),
            (_set_case("av", "111"), "malformed case at line 2 (unsupported operand type(s) for +: 'float' and 'str')"),
            (
                _set_case("av", {"0": 9.0, "1": 9.0, "2": 9.0}),
                "malformed case at line 2 (unsupported operand type(s) for +: 'float' and 'str')",
            ),
            (_set_case("prob_desc", {"beach": 1.0}), "malformed case at line 2 (prob_desc is not a list)"),
            (_set_weight("1_0.5"), "malformed case at line 2 (unsupported operand type(s) for +: 'float' and 'str')"),
            (_set_weight(True), "malformed case at line 2 (true and false are not numbers)"),
            # over N = 3 every selection idf is below 1, so the quotient is inf
            (_set_weight(1.7e308), "line 2: case base weight of 'beach' is too large to recover its tf"),
            (_set_weight(-1.7e308), "line 2: case base weight of 'beach' is too large to recover its tf"),
            (_set_stats(beach=2.7), "malformed corpus_stats at line 5 (N and every df must be integers)"),
            (_set_stats(N="3"), "malformed corpus_stats at line 5 (N and every df must be integers)"),
            (_stats_among_cases, "unrecognized record at line 3"),
            (_case_after_lexicon, "truncated case base (line 6 is not a lexicon record after corpus_stats)"),
            (_drop_stats, "truncated case base (line 5 is not a lexicon record after corpus_stats)"),
            (_set_config("k_terms", 2.5), "bad config in header (k_terms must be an integer >= 1)"),
            (_set_topic(0, "name", 7), f"malformed lexicon at line 6 ({TOPIC_TYPES})"),
            (_set_topic(0, "terms", "beach"), f"malformed lexicon at line 6 ({TOPIC_TYPES})"),
            (_set_topic(-1, "miscellaneous", 1), f"malformed lexicon at line 6 ({TOPIC_TYPES})"),
            (_surrogate_lexicon_term, "malformed lexicon at line 6 ('utf-8' codec can't encode character '\\udce9'"),
            (_deeply_nested_case, "line 2 is not valid JSON (maximum recursion depth exceeded"),
            (_wrap_case("\ufeff", ""), "line 2 is not valid JSON (Unexpected UTF-8 BOM"),
            (_wrap_case("", " x"), "line 2 is not valid JSON (Extra data"),
            (_doubled_case, "line 2 is not valid JSON (Extra data"),
            (_wrap_case("", "\xa0"), "line 2 is not valid JSON (Extra data"),
            (_set_case_line([1, 2]), "line 2 is not an object"),
            (_set_case_line("a.html"), "line 2 is not an object"),
            (_repeated_term, "malformed case at line 2 (prob_desc lists 'beach' twice)"),
        ],
        ids=[
            "no-df", "list-df", "nameless-topic", "list-doc-id", "surrogate-doc-id", "m-str", "m-float", "m-bool", "N-str", "N-null",
            "N-mismatch", "empty-prob-desc", "N-zero", "df-negative", "df-above-N", "N-too-large",
            "av-int-too-large", "av-revised-int-too-large", "weight-int-too-large", "int-term",
            "all-int-too-large", "av-digit-string", "av-object", "prob-desc-object", "weight-underscore-string",
            "weight-true", "weight-too-large", "weight-too-negative", "df-float", "stats-N-str", "stats-among-cases", "case-after-lexicon", "no-stats",
            "k-terms-float", "topic-name-int", "topic-terms-str", "topic-miscellaneous-int", "surrogate-lexicon-term",
            "deeply-nested-case", "bom-case", "text-after-case", "two-cases-on-a-line", "no-break-space-after-case",
            "array-case", "string-case", "repeated-term",
        ],
    )
    def test_malformed_record_is_a_format_error(self, workspace, capsys, edit, message):
        assert main(build_args(workspace)) == 0
        path = workspace / "cb.jsonl"
        rewrite_records(path, edit)
        with pytest.raises(CaseBaseFormatError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_case_base(path)
        capsys.readouterr()
        assert main(["query", "--cb", str(path), "--text", "beach"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        queries = str(workspace / "queries.txt")
        assert main(["eval", "--cb", str(path), "--queries", queries, "--out", str(workspace / "r")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    def test_duplicate_doc_id_is_a_format_error(self, workspace, capsys):
        assert main(build_args(workspace)) == 0
        path = workspace / "cb.jsonl"
        rewrite_records(path, lambda records: records.insert(4, dict(records[1])))
        with pytest.raises(CaseBaseFormatError, match=r"duplicate doc_id 'a\.html' at lines 2 and 5$"):
            load_case_base(path)
        capsys.readouterr()
        assert main(["query", "--cb", str(path), "--text", "beach"]) == 1
        assert "duplicate doc_id 'a.html' at lines 2 and 5" in capsys.readouterr().err
        eval_args = ["eval", "--cb", str(path), "--queries", str(workspace / "queries.txt"), "--out", str(workspace / "r")]
        assert main(eval_args) == 1
        assert "duplicate doc_id 'a.html' at lines 2 and 5" in capsys.readouterr().err


# JSON texts put in place of one value: past the float range, a negative zero,
# the float extremes, and values that are not numbers (one is a string, so a fair term)
PALETTE = ["1" + "0" * 400, "-0", "1.5e308", "5e-324", "null", "true", '"0.5"', "[]", "{}"]
NUMBERS = PALETTE[:4]
STRINGS = ['"0.5"']


def value_slots(records):
    """Each value a palette text may replace: (path of keys and indices, the palette texts of its type)."""
    slots = [((0, "m"), NUMBERS), ((0, "N"), NUMBERS)]
    for i, record in enumerate(records[1:-2], start=1):
        slots += [((i, key, j), NUMBERS) for key in ("av", "av_revised") for j in range(len(record[key]))]
        for j in range(len(record["prob_desc"])):
            slots += [((i, "prob_desc", j, 0), STRINGS), ((i, "prob_desc", j, 1), NUMBERS)]
    stats = len(records) - 2
    slots += [((stats, "corpus_stats", "N"), NUMBERS)]
    slots += [((stats, "corpus_stats", "df", term), NUMBERS) for term in records[stats]["corpus_stats"]["df"]]
    lexicon = stats + 1
    for t, topic in enumerate(records[lexicon]["lexicon"]["topics"]):
        slots += [((lexicon, "lexicon", "topics", t, "name"), STRINGS)]
        slots += [((lexicon, "lexicon", "topics", t, "terms", j), STRINGS) for j in range(len(topic["terms"]))]
        slots += [((lexicon, "lexicon", "topics", t, "miscellaneous"), ["true"])]
    return slots


def layout(kinds):
    """What save writes: a header, cases with distinct doc_ids, the corpus stats, then the lexicon."""
    cases = kinds[1:-2]
    distinct = len(set(cases)) == len(cases) and all(type(kind) is tuple for kind in cases)
    return distinct and kinds == ["header", *cases, "stats", "lexicon"]


@pytest.fixture(scope="module")
def built_workspace(tmp_path_factory):
    ws = write_workspace(tmp_path_factory.mktemp("fuzz"))
    assert main(build_args(ws)) == 0
    return ws


class TestCaseBaseFuzz:
    """One structural mutation of a saved case base: a rejection at load, or a full cycle that saves stably."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_mutation_is_rejected_or_survives_a_cycle(self, built_workspace, data):
        path = built_workspace / "cb.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        kinds = ["header", *(("case", r["doc_id"]) for r in records[1:-2]), "stats", "lexicon"]
        mutation = data.draw(st.sampled_from(["value", "delete-key", "line"]), label="mutation")
        if mutation == "value":
            keys, accepted = data.draw(st.sampled_from(value_slots(records)), label="slot")
            text = data.draw(st.sampled_from(PALETTE), label="text")
            target = records[keys[0]]
            for key in keys[1:-1]:
                target = target[key]
            target[keys[-1]] = "@fuzz@"
            lines[keys[0]] = json.dumps(records[keys[0]], sort_keys=True).replace('"@fuzz@"', text)
            must_reject = text not in accepted
        elif mutation == "delete-key":
            i = data.draw(st.integers(0, len(records) - 1), label="line")
            owners = [records[i]] + [v for v in records[i].values() if isinstance(v, dict)]
            owner = data.draw(st.sampled_from([d for d in owners if d]), label="record")
            del owner[data.draw(st.sampled_from(sorted(owner)), label="key")]
            lines[i] = json.dumps(records[i], sort_keys=True)
            # a config field left out takes its default; every other key is required
            must_reject = owner is not records[0].get("config")
        else:
            mutation = data.draw(st.sampled_from(["duplicate", "move", "drop"]), label="line mutation")
            i = data.draw(st.integers(0, len(lines) - 1), label="line")
            j = data.draw(st.integers(0, len(lines) - (mutation != "duplicate")), label="to")
            for order in (lines, kinds):
                item = order[i] if mutation == "duplicate" else order.pop(i)
                if mutation != "drop":
                    order.insert(j, item)
            must_reject = not layout(kinds)
        mutated, out, again = (built_workspace / name for name in ("mutated.jsonl", "out.jsonl", "again.jsonl"))
        mutated.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

        try:
            cb = load_case_base(mutated)
        except CaseBaseFormatError as exc:
            assert str(exc).startswith(f"{mutated}: ")
            return
        assert not must_reject, f"{mutation} loaded"
        index = build_index(cb)
        try:
            for tokens in (["beach", "holiday"], sorted({term for case in cb.cases for term in case.prob_desc})):
                pool = retrieve_top_k(tokens, index, cb, cb.config.k_retrieve)
                query_av = compute_query_affordance(tokens, cb.lexicon)
                rerank(pool, query_av, cb, alpha=0.5, use_revised=True)
                revise_case_affordance([candidate.case for candidate in pool], query_av, eta=0.5)
        except CaseBaseFormatError as exc:
            assert "too large to recover its tf" in str(exc)
            return
        save_case_base(cb, out)
        save_case_base(load_case_base(out), again)
        assert again.read_bytes() == out.read_bytes()


class TestNonUtf8Input:
    @pytest.mark.parametrize("name", ["queries.txt", "qrels.tsv", "lexicon.tsv", "stops.txt", "cb.jsonl"])
    def test_undecodable_file_is_input_error(self, workspace, capsys, name):
        assert main(build_args(workspace)) == 0
        stops = workspace / "stops.txt"
        stops.write_text("the\n", encoding="utf-8")
        (workspace / name).write_bytes(b"beach \xff\xfe temple\n")
        if name == "lexicon.tsv":
            args = build_args(workspace)
        else:
            args = [
                "eval",
                "--cb", str(workspace / "cb.jsonl"),
                "--queries", str(workspace / "queries.txt"),
                "--qrels", str(workspace / "qrels.tsv"),
                "--stopwords", str(stops),
                "--out", str(workspace / "report"),
            ]
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {workspace / name}: not UTF-8 (")


# bytes spliced into a text input: separators of each reader's format, newlines
# other than \n, a NUL, an invalid UTF-8 byte and the markup of a query file
SPLICES = [
    b"", b"\t", b"\n", b"\r", b"\r\n", b"\x00", b"\xff", b"\xc2\x85", b"\xe2\x80\xa8", b"#", b"*", b",", b"0", b"1",
    b"<top>", b"</top>", b"<num>", b"<title>", b"<desc>", b"<narr>",
]


@pytest.fixture(scope="module")
def text_workspace(tmp_path_factory):
    ws = write_workspace(tmp_path_factory.mktemp("text-fuzz"))
    (ws / "stops.txt").write_text("the\nand\n", encoding="utf-8")
    assert main(build_args(ws)) == 0
    return ws


class TestTextInputFuzz:
    """Byte-level mutations of the lexicon, queries, qrels and stop-word files: the CLI exits 0 or 1, never 2."""

    @pytest.mark.parametrize("name", ["lexicon.tsv", "queries.txt", "qrels.tsv", "stops.txt"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_mutated_text_input_is_served_or_rejected(self, text_workspace, name, data):
        ws = text_workspace
        raw = (ws / name).read_bytes()
        for _ in range(data.draw(st.integers(1, 4), label="edits")):
            start = data.draw(st.integers(0, len(raw)), label="start")
            end = data.draw(st.integers(start, min(len(raw), start + 8)), label="end")
            splice = data.draw(st.sampled_from(SPLICES) | st.binary(max_size=4), label="splice")
            raw = raw[:start] + splice + raw[end:]
        inputs = {key: ws / key for key in ("lexicon.tsv", "queries.txt", "qrels.tsv", "stops.txt")}
        inputs[name] = ws / f"mutated-{name}"
        inputs[name].write_bytes(raw)
        if name == "lexicon.tsv":
            args = ["build", "--corpus", str(ws / "corpus"), "--lexicon", str(inputs[name]), "--out", str(ws / "fuzz.jsonl")]
        else:
            args = [
                "eval",
                "--cb", str(ws / "cb.jsonl"),
                "--queries", str(inputs["queries.txt"]),
                "--qrels", str(inputs["qrels.tsv"]),
                "--stopwords", str(inputs["stops.txt"]),
                "--out", str(ws / "fuzz-report"),
            ]
            if data.draw(st.booleans(), label="use desc"):
                args.append("--use-desc")
        assert main(args) in (0, 1)


class TestExitCodes:
    def test_usage_error_maps_to_one(self, workspace, capsys):
        assert main([]) == 1
        assert main(["build"]) == 1
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["build", "query", "eval"])
    def test_removed_options_are_usage_errors(self, workspace, capsys, command):
        cb, queries = str(workspace / "cb.jsonl"), str(workspace / "queries.txt")
        args = {
            "build": build_args(workspace, workers=2),
            "query": ["query", "--cb", cb, "--text", "beach", "--use-revised"],
            "eval": ["eval", "--cb", cb, "--queries", queries, "--out", str(workspace / "r"), "--workers", "2"],
        }[command]
        assert main(args) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "build" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, dials",
        [
            ("build", {"--k-terms": "k_terms", "--tau": "tau"}),
            ("query", {"--k": "k_retrieve", "--alpha": "alpha"}),
            ("eval", {"--k": "k_retrieve", "--alpha": "alpha", "--eta": "eta"}),
        ],
    )
    def test_help_shows_build_config_defaults(self, capsys, command, dials):
        capsys.readouterr()
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for flag, name in dials.items():
            metavar = flag[2:].upper().replace("-", "_")
            # the flag's own help entry, which runs up to the next option
            pattern = rf"{flag} {metavar} (?:(?!--).)*\(default {getattr(BuildConfig, name)}\)"
            assert re.search(pattern, text), f"{command} --help: {flag} does not show {name}'s default"

    def test_unexpected_failure_maps_to_two(self, workspace, monkeypatch):
        import affret.cli as cli_module

        def boom(path):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli_module, "load_case_base", boom)
        assert main(["query", "--cb", "x", "--text", "beach"]) == 2


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, workspace):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "affret", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "build" in result.stdout
