from fixture_corpus import FILES, generate_fixtures

from conftest import FIXTURE_DIR


def test_generation_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_fixtures(a)
    generate_fixtures(b)
    for name in FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_committed_corpus_matches_generator(tmp_path):
    generate_fixtures(tmp_path)
    committed = sorted(p.name for p in FIXTURE_DIR.glob("*.tml"))
    assert committed == sorted(FILES)
    for name in committed:
        assert (tmp_path / name).read_bytes() == (FIXTURE_DIR / name).read_bytes()
