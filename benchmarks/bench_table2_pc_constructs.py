"""Table II: producer-consumer relationships in benchmarks."""

from repro.experiments import table2


def test_table2_pc_constructs(save_result):
    rows = table2.run()
    assert table2.matches_paper(rows)
    totals = rows[-1]
    assert totals.num == 58
    assert totals.pc_comm == 51
    assert totals.irregular == 32
    assert totals.sw_queue == 11
    save_result("table2_pc_constructs", table2.render())
