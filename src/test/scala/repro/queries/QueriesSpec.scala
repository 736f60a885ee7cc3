package repro.queries

import repro.{Oracle, SparkSpec, TestUtil}
import repro.baselines.{EngineRunner, SparkSqlRunner}
import repro.core._

/** The correctness matrix: every TPC-H-lite query is executed by (a) the
  * pipelined engine and (b) SparkSQL/Catalyst, and both results are diffed
  * against DuckDB via the oracle; engine and Spark are also diffed against
  * each other. All arithmetic is exact fixed point, so comparisons are
  * exact, not tolerance-based.
  */
class QueriesSpec extends SparkSpec {
  private val SF = 0.005

  private lazy val t = TpchData.load(spark, SF)

  private def cfg: EngineConfig = EngineConfig(
    workers = 3,
    cost = CostParams(coresPerWorker = 4, detectS = 0.5, planS = 0.1),
    inputBatchRows = 1024)

  private def oracleTables(q: Q) =
    q.tables.map(n => (n + "_raw") -> TpchData.df(spark, t, n))

  for (q <- TpchLite.all) {
    test(s"${q.id}: engine result matches DuckDB oracle") {
      val rr = EngineRunner.run(cfg, q, t)
      assert(rr.simSeconds > 0.0)
      Oracle.assertEquivalent(EngineRunner.resultDf(spark, rr), q.duckSql, oracleTables(q): _*)
    }

    test(s"${q.id}: SparkSQL (Catalyst) result matches DuckDB oracle") {
      Oracle.assertEquivalent(SparkSqlRunner.run(spark, t, q), q.duckSql, oracleTables(q): _*)
    }

    test(s"${q.id}: engine result matches SparkSQL result") {
      val rr = EngineRunner.run(cfg, q, t)
      val sparkRows = SparkSqlRunner.run(spark, t, q).collect().toSeq.map(_.toSeq.toArray[Any])
      TestUtil.assertSameRows(rr.rows, sparkRows, s"${q.id} engine vs Spark")
    }
  }

  test("every input stage emits rows that match its declared schema") {
    for (q <- TpchLite.all; st <- q.mkPlan(t).stages) st.op match {
      case InputOp(table, fuse) =>
        val rows = t.rows(table).grouped(cfg.inputBatchRows).flatMap(fuse(_)).toVector
        assert(rows.nonEmpty, s"${q.id} stage ${st.id} emits no rows at SF=$SF")
        for (r <- rows) {
          assert(r.length == st.schema.size, s"${q.id} stage ${st.id}: ${r.length} values")
          st.schema.cols.zip(r).foreach { case ((name, ty), v) =>
            val ok = ty match {
              case CLong   => v.isInstanceOf[Long]
              case CDouble => v.isInstanceOf[Double]
              case CString => v.isInstanceOf[String]
            }
            assert(ok, s"${q.id} stage ${st.id} column $name: $ty declared, got $v")
          }
        }
      case _ =>
    }
  }

  test("queries produce non-trivial results at the test scale factor") {
    // guards the HAVING COUNT(*) > 0 semantics of the keyless aggregates
    for (q <- Vector(TpchLite.q6, TpchLite.q14, TpchLite.q19)) {
      val rr = EngineRunner.run(cfg, q, t)
      assert(rr.rows.nonEmpty, s"${q.id} unexpectedly empty at SF=$SF")
    }
  }
}
