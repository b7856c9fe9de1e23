import pytest

from zetterberg.caps import ENV_CONFIG, Caps, load_caps, power_exceeds


def test_defaults():
    caps = load_caps()
    assert caps == Caps()
    assert caps.oracle_cap == 2**20
    assert caps.enum_codewords_cap == 2**18
    assert len(Caps.__dataclass_fields__) == 4


def test_power_exceeds_is_the_power_comparison():
    for cap in (1, 2, 3, 7, 8, 9, 2**20, 2**32 - 1, 2**32, 2**32 + 1):
        for base in (2, 3, 4, 13):
            for e in range(40):
                assert power_exceeds(base, e, cap) == (base**e > cap)


def test_config_file_overrides(tmp_path, monkeypatch):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("# limits for a small machine\noracle_cap = 65536\n"
                   "criterion_order_cap=1000000\n\n")
    monkeypatch.setenv(ENV_CONFIG, str(cfg))
    caps = load_caps()
    assert caps.oracle_cap == 65536
    assert caps.criterion_order_cap == 1000000
    assert caps.max_ambient_order == Caps().max_ambient_order  # untouched keys keep defaults


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("never_heard_of_it=1\n")
    with pytest.raises(ValueError):
        load_caps(str(cfg))


def test_hex_values_allowed(tmp_path):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("oracle_cap=0x100000\n")
    assert load_caps(str(cfg)).oracle_cap == 2**20


@pytest.mark.parametrize("value", ["0", "-1", "-0x10"])
def test_non_positive_value_rejected(tmp_path, value):
    cfg = tmp_path / "caps.conf"
    cfg.write_text(f"oracle_cap={value}\n")
    with pytest.raises(ValueError):
        load_caps(str(cfg))
