package repro.core

import repro.SparkSpec
import repro.baselines.Systems
import repro.queries.{TpchData, TpchLite}

/** Row-for-row gate for the join stages. For every TPC-H-lite query at
  * SF 0.005, run clean on 4-worker Quokka, it pins each join stage's
  * schema, its row count and an order-sensitive hash of its output: the
  * backed-up slices of each task in (channel, seq, consumer channel) order,
  * each slice's length, and each row's values and their classes. A rewrite
  * of the join kernel or of the producers' partitioning that keeps every
  * task's rows, their order, their types and the consumer channel each row
  * goes to leaves every line unchanged.
  */
class JoinStagesSpec extends SparkSpec {
  private lazy val t = TpchData.load(spark, 0.005)

  /** One line per join stage: query, stage id, schema, rows, hash.
    * Recorded before join keys became columns probed through a primitive
    * table.
    */
  private val recorded = Vector(
    "q3 2 o_orderkey:CLong,o_orderdate:CString 821 -2131579079419363449",
    "q3 4 l_orderkey:CLong,o_orderdate:CString,rev:CLong 1813 -8570286027494513228",
    "q5 2 n_nationkey:CLong,n_name:CString 5 5023972440691967465",
    "q5 4 c_custkey:CLong,n_nationkey:CLong,n_name:CString 157 -5353272024794598085",
    "q5 6 o_orderkey:CLong,n_nationkey:CLong,n_name:CString 236 8001664750264770948",
    "q5 8 l_suppkey:CLong,n_nationkey:CLong,n_name:CString,rev:CLong 933 -9025933900076720218",
    "q5 10 n_name:CString,rev:CLong 37 -8845926597497081121",
    "q7 2 s_suppkey:CLong,n_name:CString 3 1046180137822685895",
    "q7 4 l_orderkey:CLong,n_name:CString,l_year:CLong,rev:CLong 488 -837504848451200779",
    "q7 6 o_custkey:CLong,n_name:CString,l_year:CLong,rev:CLong 488 1207789475924647766",
    "q7 9 c_custkey:CLong,n_name:CString 55 -6551134463451550145",
    "q7 10 n1:CString,n2:CString,l_year:CLong,rev:CLong 15 -7551913965107047040",
    "q8 2 l_suppkey:CLong,l_orderkey:CLong,rev:CLong 5261 6761275648973084019",
    "q8 4 l_orderkey:CLong,rev:CLong,s_nationkey:CLong 5261 7866062856806881837",
    "q8 6 o_custkey:CLong,rev:CLong,s_nationkey:CLong,o_year:CLong 1579 6783749132343362140",
    "q8 8 rev:CLong,s_nationkey:CLong,o_year:CLong,c_nationkey:CLong 1579 -182394317407891987",
    "q8 11 n_nationkey:CLong 5 1948108264089984630",
    "q8 12 rev:CLong,s_nationkey:CLong,o_year:CLong 314 -2894050992631527231",
    "q8 14 o_year:CLong,rev:CLong,n_name:CString 314 5512029988694041207",
    "q9 2 l_partkey:CLong,l_suppkey:CLong,l_orderkey:CLong,qty:CLong,rev:CLong 4549 -5508205736698276647",
    "q9 4 l_partkey:CLong,l_suppkey:CLong,l_orderkey:CLong,qty:CLong,rev:CLong,s_nationkey:CLong 4549 1218834765946221952",
    "q9 6 l_orderkey:CLong,s_nationkey:CLong,amount:CLong 372 -8642911797439879511",
    "q9 8 s_nationkey:CLong,o_year:CLong,amount:CLong 372 -1627740310764964662",
    "q9 10 n_name:CString,o_year:CLong,amount:CLong 372 8112844753045601195",
    "q10 2 o_custkey:CLong,rev:CLong 350 7845896690525121191",
    "q10 4 c_custkey:CLong,c_nationkey:CLong,c_acctbal:CDouble,rev:CLong 350 -2229770937631409960",
    "q10 6 c_custkey:CLong,n_name:CString,c_acctbal:CDouble,rev:CLong 350 -297267789331307716",
    "q12 2 l_shipmode:CString,hi:CLong 513 7927808789783951240",
    "q14 2 promoRev:CLong,rev:CLong 353 2792942960395809981",
    "q19 2 rev:CLong 764 -5628595215713885357",
  )

  test("every join stage emits the recorded rows, in order, with their types") {
    val got = for {
      q <- TpchLite.all
      plan = q.mkPlan(t)
      e = { val e = new Engine(Systems.quokka(4), plan, t.rows); e.run(); e }
      st <- plan.stages if st.op.isInstanceOf[JoinOp]
    } yield {
      var (n, h) = (0, 17L)
      for (c <- 0 until e.C; i = e.gcs.index(st.id, c); s <- 0 until e.gcs.committedCount(i);
           slice <- e.copies(i)(s).slices) {
        h = h * 31 + slice.length
        slice.foreach { r =>
          n += 1
          h = h * 31 + r.length
          r.foreach(v => h = (h * 31 + v.getClass.getName.hashCode) * 31 + v.hashCode)
        }
      }
      val sch = st.schema.cols.map { case (c, ty) => s"$c:$ty" }.mkString(",")
      s"${q.id} ${st.id} $sch $n $h"
    }
    val diff = got.zipAll(recorded, "(none)", "(none)").filter { case (g, w) => g != w }
    assert(diff.isEmpty, "join stages differ from the recorded values:\n" +
      diff.map { case (g, w) => s"  got  $g\n  want $w" }.mkString("\n") +
      "\nall lines:\n" + got.map(l => s"""    "$l",""").mkString("\n"))
  }
}
