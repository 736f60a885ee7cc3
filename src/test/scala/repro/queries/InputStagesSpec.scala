package repro.queries

import repro.SparkSpec
import repro.core.InputOp
import repro.core.Rows.R

/** Row-for-row gate for the input stages. For every TPC-H-lite query at
  * SF 0.005 and every input stage, fed its table in batches of 1024 rows,
  * it pins the stage's schema, its row count and an order-sensitive hash
  * of its rows (each value and its class). A rewrite of a stage that keeps
  * its values, column order, row order and types leaves every line
  * unchanged.
  */
class InputStagesSpec extends SparkSpec {
  private lazy val t = TpchData.load(spark, 0.005)
  private val batchRows = 1024

  private def fingerprint(rows: Iterator[R]): (Int, Long) = {
    var (n, h) = (0, 17L)
    rows.foreach { r =>
      n += 1
      h = h * 31 + r.length
      r.foreach(v => h = (h * 31 + v.getClass.getName.hashCode) * 31 + v.hashCode)
    }
    (n, h)
  }

  /** One line per input stage: query, stage id, schema, rows, hash.
    * Recorded before the hand-written input stages became named scans.
    */
  private val recorded = Vector(
    "q1 0 rf:CString,ls:CString,qty:CLong,base:CLong,dp:CLong,chg:CLong,disc:CLong,cnt:CLong 180 -150793885172556160",
    "q3 0 c_custkey:CLong 169 -1562313918825664917",
    "q3 1 o_orderkey:CLong,o_custkey:CLong,o_orderdate:CString 3646 -3367687437692644732",
    "q3 3 l_orderkey:CLong,rev:CLong 16181 8431614988196029965",
    "q5 0 r_regionkey:CLong 1 12363159106",
    "q5 1 n_nationkey:CLong,n_name:CString,n_regionkey:CLong 25 5355176406394961673",
    "q5 3 c_custkey:CLong,c_nationkey:CLong 750 3850795737668020680",
    "q5 5 o_orderkey:CLong,o_custkey:CLong 1124 39900398701280068",
    "q5 7 l_orderkey:CLong,l_suppkey:CLong,rev:CLong 30000 -3732406900803922932",
    "q5 9 s_suppkey:CLong,s_nationkey:CLong 50 -1533873904151054486",
    "q6 0 rev:CLong 30 -3537600896538212223",
    "q7 0 n_nationkey:CLong,n_name:CString 2 9213004493428292211",
    "q7 1 s_suppkey:CLong,s_nationkey:CLong 50 -1533873904151054486",
    "q7 3 l_suppkey:CLong,l_orderkey:CLong,l_year:CLong,rev:CLong 8529 5041338390176117532",
    "q7 5 o_orderkey:CLong,o_custkey:CLong 7500 -2515803150588123317",
    "q7 7 n_nationkey:CLong,n_name:CString 2 9213004493428292211",
    "q7 8 c_custkey:CLong,c_nationkey:CLong 750 3850795737668020680",
    "q8 0 p_partkey:CLong 175 -4377149820465808425",
    "q8 1 l_partkey:CLong,l_suppkey:CLong,l_orderkey:CLong,rev:CLong 30000 8477957279866552728",
    "q8 3 s_suppkey:CLong,s_nationkey:CLong 50 -1533873904151054486",
    "q8 5 o_orderkey:CLong,o_custkey:CLong,o_year:CLong 2233 -6366182816647209892",
    "q8 7 c_custkey:CLong,c_nationkey:CLong 750 3850795737668020680",
    "q8 9 r_regionkey:CLong 1 12363159105",
    "q8 10 n_nationkey:CLong,n_regionkey:CLong 25 8445075528955978559",
    "q8 13 n_nationkey:CLong,n_name:CString 25 -604139498690536042",
    "q9 0 p_partkey:CLong 153 -4515796226008285211",
    "q9 1 l_partkey:CLong,l_suppkey:CLong,l_orderkey:CLong,qty:CLong,rev:CLong 30000 -7964690950826390853",
    "q9 3 s_suppkey:CLong,s_nationkey:CLong 50 -1533873904151054486",
    "q9 5 ps_partkey:CLong,ps_suppkey:CLong,cost:CLong 4000 -3466078438022337825",
    "q9 7 o_orderkey:CLong,o_year:CLong 7500 -8630499720194475642",
    "q9 9 n_nationkey:CLong,n_name:CString 25 -604139498690536042",
    "q10 0 l_orderkey:CLong,rev:CLong 9956 -5850784204072627584",
    "q10 1 o_orderkey:CLong,o_custkey:CLong 298 5314732318441728984",
    "q10 3 c_custkey:CLong,c_nationkey:CLong,c_acctbal:CDouble 750 -7304088367487078837",
    "q10 5 n_nationkey:CLong,n_name:CString 25 -604139498690536042",
    "q12 0 l_orderkey:CLong,l_shipmode:CString 513 1460020008141236165",
    "q12 1 o_orderkey:CLong,hi:CLong 7500 995752396125588535",
    "q14 0 l_partkey:CLong,rev:CLong 353 420233712674874906",
    "q14 1 p_partkey:CLong,promo:CLong 1000 2177639318445621548",
    "q19 0 l_partkey:CLong,qty:CLong,rev:CLong 30000 5526280008302305190",
    "q19 1 p_partkey:CLong,p_type:CString,p_size:CLong 1000 -4779917883376695792",
  )

  test("every input stage emits the recorded rows, in order, with their types") {
    val got = for {
      q <- TpchLite.all
      st <- q.mkPlan(t).stages
      (table, fuse) <- st.op match { case InputOp(tb, f) => Some((tb, f)); case _ => None }
    } yield {
      val (n, h) = fingerprint(t.rows(table).grouped(batchRows).flatMap(fuse(_)))
      val sch = st.schema.cols.map { case (c, ty) => s"$c:$ty" }.mkString(",")
      s"${q.id} ${st.id} $sch $n $h"
    }
    val diff = got.zipAll(recorded, "(none)", "(none)").filter { case (g, w) => g != w }
    assert(diff.isEmpty, "input stages differ from the recorded values:\n" +
      diff.map { case (g, w) => s"  got  $g\n  want $w" }.mkString("\n") +
      "\nall lines:\n" + got.map(l => s"""    "$l",""").mkString("\n"))
  }
}
