"""Table I: system configuration construction."""

from repro.config.system import TABLE_I, discrete_gpu_system, heterogeneous_processor, table_i
from repro.experiments.report import format_mapping


def test_table1_config(save_result):
    rendered = table_i()
    assert rendered == TABLE_I
    # Both machines must build and differ only in the expected places.
    discrete = discrete_gpu_system()
    hetero = heterogeneous_processor()
    assert discrete.cpu == hetero.cpu and discrete.gpu == hetero.gpu
    save_result(
        "table1_config",
        format_mapping("Table I: Heterogeneous system parameters", rendered),
    )
