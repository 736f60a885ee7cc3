package repro.queries

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.core._
import repro.core.Rows.{R, dbl, lng, str, year}
import scala.collection.mutable

/** All ingested tables of one scale factor. */
final case class Tables(sch: Map[String, Sch], rows: Map[String, Array[R]])

/** Loads and caches the TPC-H-lite tables as engine rows. The DuckDB oracle
  * and the SparkSQL baseline are fed from the *same* ingested rows (via
  * [[Rows.toDf]]) so all three systems see identical inputs.
  */
object TpchData {
  val names: Vector[String] = Vector(
    "lineitem", "orders", "customer", "part", "supplier", "partsupp", "nation", "region")

  private val cache = mutable.Map.empty[Double, Tables]

  def load(spark: SparkSession, sf: Double): Tables = synchronized {
    cache.getOrElseUpdate(sf, {
      val dfs = Map[String, DataFrame](
        "lineitem" -> SynthData.lineitem(spark, sf),
        "orders"   -> SynthData.orders(spark, sf),
        "customer" -> SynthData.customer(spark, sf),
        "part"     -> SynthData.part(spark, sf),
        "supplier" -> SynthData.supplier(spark, sf),
        "partsupp" -> SynthData.partsupp(spark, sf),
        "nation"   -> SynthData.nation(spark),
        "region"   -> SynthData.region(spark),
      )
      val ingested = dfs.map { case (n, df) => n -> Rows.ingest(df) }
      Tables(ingested.map { case (n, (s, _)) => n -> s },
             ingested.map { case (n, (_, r)) => n -> r })
    })
  }

  /** Rebuild a table as a Spark DataFrame from the ingested rows. */
  def df(spark: SparkSession, t: Tables, name: String): DataFrame =
    Rows.toDf(spark, t.sch(name), t.rows(name).toSeq)
}

/** One TPC-H-lite query: paper category, engine plan, shared SQL body. */
final case class Q(
  id: String,
  cat: String, // "I" (simple agg), "II" (simple joins), "III" (multi-join), "-" (extra)
  tables: Vector[String],
  body: String,
  mkPlan: Tables => Plan,
) {
  def duckSql: String = Sql.render(tables, body, Sql.Duck)
  def sparkSql: String = Sql.render(tables, body, Sql.SparkD)
}

/** The 11 TPC-H-lite queries (DESIGN.md §4). Literal substitutions onto the
  * synthetic domain are noted per query; join trees, filters and aggregate
  * structure follow the TPC-H originals, with ORDER BY/LIMIT dropped
  * (results are compared as sorted multisets).
  *
  * Scans are [[PlanBuilder.scan]]s and column-selecting joins are
  * [[PlanBuilder.joinOn]]s, which state their columns once, by name; a
  * scan's computed columns (`rev`, `qty`, the years, `cost`, the `hi` and
  * `promo` flags) are [[Computed]] columns defined once below. Every join
  * names its key columns, all `CLong`; Q9's partsupp join is keyed by a
  * pair. Q1's and Q6's pre-aggregating scans are written by hand, and so
  * are the emits of five joins, where a name list cannot say what they do:
  * the residual predicates of Q5 (`n_nationkey = s_nationkey`; as a pair
  * key it would change the partitioning key `l_suppkey`/`s_suppkey`) and
  * Q7 (it needs `n_name` from both sides), and the values computed from
  * both sides in Q9 (`amount`), Q14 (`promoRev`) and Q19 (`rev` of the
  * pairs its predicate keeps). Intermediate columns keep their source
  * names; only the final aggregation names the result columns.
  */
object TpchLite {
  import Money.{c2, charge6, rev4}

  private def S(cols: (String, ColType)*): Sch = Sch.of(cols: _*)

  private val rev = Computed("rev", CLong, "l_extendedprice", "l_discount")(
    (r, at) => rev4(dbl(r, at(0)), dbl(r, at(1))))
  private val qty = Computed("qty", CLong, "l_quantity")((r, at) => math.round(dbl(r, at(0))))
  private val lYear = Computed("l_year", CLong, "l_shipdate")((r, at) => year(str(r, at(0))))
  private val oYear = Computed("o_year", CLong, "o_orderdate")((r, at) => year(str(r, at(0))))
  private val cost = Computed("cost", CLong, "ps_supplycost")((r, at) => c2(dbl(r, at(0))))
  private val hi = Computed("hi", CLong, "o_orderpriority") { (r, at) =>
    val p = str(r, at(0)); if (p == "1-URGENT" || p == "2-HIGH") 1L else 0L
  }
  private val promo = Computed("promo", CLong, "p_type")(
    (r, at) => if (str(r, at(0)) == "PROMO") 1L else 0L)

  /** Simple sum-aggregation stage: group by `keyIdx` columns, sum the Long
    * columns `accIdx`.
    */
  private def sumAgg(b: PlanBuilder, up: Int, keyIdx: Vector[Int], accIdx: Vector[Int],
                     out: Sch)(finish: (Vector[Any], Array[Long]) => R): Int =
    b.agg(up,
      key = r => keyIdx.map(r(_)),
      nAccs = accIdx.size, out) { (accs, r) =>
        var i = 0
        while (i < accIdx.size) { accs(i) += lng(r, accIdx(i)); i += 1 }
      }(finish)

  // ------------------------------------------------------------------- Q1

  val q1: Q = Q("q1", "I", Vector("lineitem"),
    body = """SELECT l_returnflag, l_linestatus,
      | CAST(SUM(l_quantity) AS DOUBLE) AS sum_qty,
      | CAST(SUM(l_extendedprice) AS DOUBLE) AS sum_base_price,
      | CAST(SUM(l_extendedprice * (1 - l_discount)) AS DOUBLE) AS sum_disc_price,
      | CAST(SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS DOUBLE) AS sum_charge,
      | CAST(SUM(l_quantity) AS DOUBLE) / COUNT(*) AS avg_qty,
      | CAST(SUM(l_extendedprice) AS DOUBLE) / COUNT(*) AS avg_price,
      | CAST(SUM(l_discount) AS DOUBLE) / COUNT(*) AS avg_disc,
      | CAST(COUNT(*) AS BIGINT) AS count_order
      |FROM lineitem
      |WHERE l_shipdate <= '1998-09-02'
      |GROUP BY l_returnflag, l_linestatus""".stripMargin,
    mkPlan = { t =>
      val L = t.sch("lineitem")
      val (ship, rf, ls) = (L.idx("l_shipdate"), L.idx("l_returnflag"), L.idx("l_linestatus"))
      val (qty, price, disc, tax) =
        (L.idx("l_quantity"), L.idx("l_extendedprice"), L.idx("l_discount"), L.idx("l_tax"))
      val partial = S("rf" -> CString, "ls" -> CString, "qty" -> CLong, "base" -> CLong,
        "dp" -> CLong, "chg" -> CLong, "disc" -> CLong, "cnt" -> CLong)
      val b = new PlanBuilder("q1")
      // scan-side pre-aggregation ("aggregation pushdown", paper §V-C)
      val scan = b.input("lineitem", partial) { batch =>
        val m = mutable.LinkedHashMap.empty[(String, String), Array[Long]]
        batch.foreach { r =>
          if (str(r, ship) <= "1998-09-02") {
            val a = m.getOrElseUpdate((str(r, rf), str(r, ls)), new Array[Long](6))
            a(0) += math.round(dbl(r, qty)); a(1) += c2(dbl(r, price))
            a(2) += rev4(dbl(r, price), dbl(r, disc))
            a(3) += charge6(dbl(r, price), dbl(r, disc), dbl(r, tax))
            a(4) += c2(dbl(r, disc)); a(5) += 1
          }
        }
        m.iterator.map { case ((a, b2), s) =>
          Array[Any](a, b2, s(0), s(1), s(2), s(3), s(4), s(5))
        }.toArray
      }
      val out = S("l_returnflag" -> CString, "l_linestatus" -> CString,
        "sum_qty" -> CDouble, "sum_base_price" -> CDouble, "sum_disc_price" -> CDouble,
        "sum_charge" -> CDouble, "avg_qty" -> CDouble, "avg_price" -> CDouble,
        "avg_disc" -> CDouble, "count_order" -> CLong)
      sumAgg(b, scan, Vector(0, 1), Vector(2, 3, 4, 5, 6, 7), out) { (k, a) =>
        val cnt = a(5)
        Array[Any](k(0), k(1), a(0).toDouble, a(1).toDouble / 100.0, a(2).toDouble / 1e4,
          a(3).toDouble / 1e6, a(0).toDouble / cnt, a(1).toDouble / 100.0 / cnt,
          a(4).toDouble / 100.0 / cnt, cnt)
      }
      b.build()
    })

  // ------------------------------------------------------------------- Q6

  val q6: Q = Q("q6", "I", Vector("lineitem"),
    body = """SELECT CAST(COALESCE(SUM(l_extendedprice * l_discount), 0) AS DOUBLE) AS revenue
      |FROM lineitem
      |WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
      | AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24""".stripMargin,
    mkPlan = { t =>
      val L = t.sch("lineitem")
      val (ship, qty, price, disc) =
        (L.idx("l_shipdate"), L.idx("l_quantity"), L.idx("l_extendedprice"), L.idx("l_discount"))
      val b = new PlanBuilder("q6")
      // pre-aggregated scan: one partial row per batch (sum may be 0, so the
      // single global group always exists — matching SQL's COALESCE(...,0))
      val scan = b.input("lineitem", S("rev" -> CLong)) { batch =>
        var s = 0L
        batch.foreach { r =>
          val dc = c2(dbl(r, disc))
          if (str(r, ship) >= "1994-01-01" && str(r, ship) < "1995-01-01" &&
              dc >= 5 && dc <= 7 && dbl(r, qty) < 24)
            s += c2(dbl(r, price)) * dc
        }
        Array(Array[Any](s))
      }
      sumAgg(b, scan, Vector(), Vector(0), S("revenue" -> CDouble)) { (_, a) =>
        Array[Any](a(0).toDouble / 1e4)
      }
      b.build()
    })

  // ------------------------------------------------------------------- Q3

  val q3: Q = Q("q3", "II", Vector("customer", "orders", "lineitem"),
    body = """SELECT l_orderkey, o_orderdate,
      | CAST(SUM(l_extendedprice * (1 - l_discount)) AS DOUBLE) AS revenue
      |FROM customer, orders, lineitem
      |WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
      | AND o_orderdate < '1995-03-15' AND l_shipdate > '1995-03-15'
      |GROUP BY l_orderkey, o_orderdate""".stripMargin,
    mkPlan = { t =>
      val Cu = t.sch("customer"); val O = t.sch("orders"); val L = t.sch("lineitem")
      val (seg, odate, ship) = (Cu.idx("c_mktsegment"), O.idx("o_orderdate"), L.idx("l_shipdate"))
      val b = new PlanBuilder("q3")
      val cu = b.scan("customer", Cu, "c_custkey")(r => str(r, seg) == "BUILDING")
      val od = b.scan("orders", O, "o_orderkey", "o_custkey", "o_orderdate")(
        r => str(r, odate) < "1995-03-15")
      val j1 = b.joinOn(cu, od, "c_custkey" -> "o_custkey", "o_orderkey", "o_orderdate")
      val li = b.scan("lineitem", L, "l_orderkey", rev)(r => str(r, ship) > "1995-03-15")
      val j2 = b.joinOn(j1, li, "o_orderkey" -> "l_orderkey", "l_orderkey", "o_orderdate", "rev")
      sumAgg(b, j2, Vector(0, 1), Vector(2),
        S("l_orderkey" -> CLong, "o_orderdate" -> CString, "revenue" -> CDouble)) { (k, a) =>
        Array[Any](k(0), k(1), a(0).toDouble / 1e4)
      }
      b.build()
    })

  // ------------------------------------------------------------------ Q10

  val q10: Q = Q("q10", "II", Vector("customer", "orders", "lineitem", "nation"),
    body = """SELECT c_custkey, n_name, c_acctbal,
      | CAST(SUM(l_extendedprice * (1 - l_discount)) AS DOUBLE) AS revenue
      |FROM customer, orders, lineitem, nation
      |WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
      | AND o_orderdate >= '1993-10-01' AND o_orderdate < '1994-01-01'
      | AND l_returnflag = 'R' AND c_nationkey = n_nationkey
      |GROUP BY c_custkey, n_name, c_acctbal""".stripMargin,
    mkPlan = { t =>
      val Cu = t.sch("customer"); val O = t.sch("orders")
      val L = t.sch("lineitem"); val N = t.sch("nation")
      val (odate, rflag) = (O.idx("o_orderdate"), L.idx("l_returnflag"))
      val b = new PlanBuilder("q10")
      val li = b.scan("lineitem", L, "l_orderkey", rev)(r => str(r, rflag) == "R")
      val od = b.scan("orders", O, "o_orderkey", "o_custkey")(
        r => { val d = str(r, odate); d >= "1993-10-01" && d < "1994-01-01" })
      val j1 = b.joinOn(od, li, "o_orderkey" -> "l_orderkey", "o_custkey", "rev")
      val cu = b.scan("customer", Cu, "c_custkey", "c_nationkey", "c_acctbal")(_ => true)
      val j2 = b.joinOn(j1, cu, "o_custkey" -> "c_custkey",
        "c_custkey", "c_nationkey", "c_acctbal", "rev")
      val na = b.scan("nation", N, "n_nationkey", "n_name")(_ => true)
      val j3 = b.joinOn(j2, na, "c_nationkey" -> "n_nationkey",
        "c_custkey", "n_name", "c_acctbal", "rev")
      sumAgg(b, j3, Vector(0, 1, 2), Vector(3),
        S("c_custkey" -> CLong, "n_name" -> CString, "c_acctbal" -> CDouble, "revenue" -> CDouble)) {
        (k, a) => Array[Any](k(0), k(1), k(2), a(0).toDouble / 1e4)
      }
      b.build()
    })

  // ------------------------------------------------------------------- Q5

  val q5: Q = Q("q5", "III",
    Vector("customer", "orders", "lineitem", "supplier", "nation", "region"),
    body = """SELECT n_name, CAST(SUM(l_extendedprice * (1 - l_discount)) AS DOUBLE) AS revenue
      |FROM customer, orders, lineitem, supplier, nation, region
      |WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey
      | AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
      | AND r_name = 'REGION_2' AND o_orderdate >= '1994-01-01' AND o_orderdate < '1995-01-01'
      |GROUP BY n_name""".stripMargin,
    mkPlan = { t =>
      val Cu = t.sch("customer"); val O = t.sch("orders"); val L = t.sch("lineitem")
      val Su = t.sch("supplier"); val N = t.sch("nation"); val Re = t.sch("region")
      val (rname, odate) = (Re.idx("r_name"), O.idx("o_orderdate"))
      val b = new PlanBuilder("q5")
      val re = b.scan("region", Re, "r_regionkey")(r => str(r, rname) == "REGION_2")
      val na = b.scan("nation", N, "n_nationkey", "n_name", "n_regionkey")(_ => true)
      val j1 = b.joinOn(re, na, "r_regionkey" -> "n_regionkey", "n_nationkey", "n_name")
      val cu = b.scan("customer", Cu, "c_custkey", "c_nationkey")(_ => true)
      val j2 = b.joinOn(j1, cu, "n_nationkey" -> "c_nationkey", "c_custkey", "n_nationkey", "n_name")
      val od = b.scan("orders", O, "o_orderkey", "o_custkey")(
        r => { val d = str(r, odate); d >= "1994-01-01" && d < "1995-01-01" })
      val j3 = b.joinOn(j2, od, "c_custkey" -> "o_custkey", "o_orderkey", "n_nationkey", "n_name")
      val li = b.scan("lineitem", L, "l_orderkey", "l_suppkey", rev)(_ => true)
      val j4 = b.joinOn(j3, li, "o_orderkey" -> "l_orderkey",
        "l_suppkey", "n_nationkey", "n_name", "rev")
      val su = b.scan("supplier", Su, "s_suppkey", "s_nationkey")(_ => true)
      val j5 = b.join(j4, su, Seq("l_suppkey") -> Seq("s_suppkey"),
        S("n_name" -> CString, "rev" -> CLong)) { (a, s) =>
        if (lng(a, 1) == lng(s, 1)) Array[Any](str(a, 2), lng(a, 3)) else null
      }
      sumAgg(b, j5, Vector(0), Vector(1), S("n_name" -> CString, "revenue" -> CDouble)) {
        (k, a) => Array[Any](k(0), a(0).toDouble / 1e4)
      }
      b.build()
    })

  // ------------------------------------------------------------------- Q7

  val q7: Q = Q("q7", "III",
    Vector("supplier", "lineitem", "orders", "customer", "nation"),
    body = """SELECT supp_nation, cust_nation, l_year, CAST(SUM(volume) AS DOUBLE) AS revenue
      |FROM (SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
      |       CAST(SUBSTR(l_shipdate, 1, 4) AS BIGINT) AS l_year,
      |       l_extendedprice * (1 - l_discount) AS volume
      |      FROM supplier, lineitem, orders, customer, nation n1, nation n2
      |      WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey
      |       AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey
      |       AND ((n1.n_name = 'NATION_07' AND n2.n_name = 'NATION_08')
      |         OR (n1.n_name = 'NATION_08' AND n2.n_name = 'NATION_07'))
      |       AND l_shipdate BETWEEN '1995-01-01' AND '1996-12-31') shipping
      |GROUP BY supp_nation, cust_nation, l_year""".stripMargin,
    mkPlan = { t =>
      val Su = t.sch("supplier"); val L = t.sch("lineitem"); val O = t.sch("orders")
      val Cu = t.sch("customer"); val N = t.sch("nation")
      val NA = "NATION_07"; val NB = "NATION_08"
      val (nname, ship) = (N.idx("n_name"), L.idx("l_shipdate"))
      val either: R => Boolean = r => { val n = str(r, nname); n == NA || n == NB }
      val b = new PlanBuilder("q7")
      val n1 = b.scan("nation", N, "n_nationkey", "n_name")(either)
      val su = b.scan("supplier", Su, "s_suppkey", "s_nationkey")(_ => true)
      val j1 = b.joinOn(n1, su, "n_nationkey" -> "s_nationkey", "s_suppkey", "n_name")
      val li = b.scan("lineitem", L, "l_suppkey", "l_orderkey", lYear, rev)(
        r => { val d = str(r, ship); d >= "1995-01-01" && d <= "1996-12-31" })
      val j2 = b.joinOn(j1, li, "s_suppkey" -> "l_suppkey", "l_orderkey", "n_name", "l_year", "rev")
      val od = b.scan("orders", O, "o_orderkey", "o_custkey")(_ => true)
      val j3 = b.joinOn(j2, od, "l_orderkey" -> "o_orderkey", "o_custkey", "n_name", "l_year", "rev")
      val n2 = b.scan("nation", N, "n_nationkey", "n_name")(either)
      val cu = b.scan("customer", Cu, "c_custkey", "c_nationkey")(_ => true)
      val j4 = b.joinOn(n2, cu, "n_nationkey" -> "c_nationkey", "c_custkey", "n_name")
      val j5 = b.join(j3, j4, Seq("o_custkey") -> Seq("c_custkey"),
        S("n1" -> CString, "n2" -> CString, "l_year" -> CLong, "rev" -> CLong)) { (a, c) =>
        val na = str(a, 1); val nb = str(c, 1)
        if ((na == NA && nb == NB) || (na == NB && nb == NA))
          Array[Any](na, nb, lng(a, 2), lng(a, 3))
        else null
      }
      sumAgg(b, j5, Vector(0, 1, 2), Vector(3),
        S("supp_nation" -> CString, "cust_nation" -> CString, "l_year" -> CLong,
          "revenue" -> CDouble)) { (k, a) =>
        Array[Any](k(0), k(1), k(2), a(0).toDouble / 1e4)
      }
      b.build()
    })

  // ------------------------------------------------------------------- Q8

  val q8: Q = Q("q8", "III",
    Vector("part", "supplier", "lineitem", "orders", "customer", "nation", "region"),
    body = """SELECT o_year,
      | CAST(SUM(CASE WHEN nation = 'NATION_06' THEN volume ELSE 0 END) AS DOUBLE)
      |   / CAST(SUM(volume) AS DOUBLE) AS mkt_share
      |FROM (SELECT CAST(SUBSTR(o_orderdate, 1, 4) AS BIGINT) AS o_year,
      |       l_extendedprice * (1 - l_discount) AS volume, n2.n_name AS nation
      |      FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region
      |      WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey AND l_orderkey = o_orderkey
      |       AND o_custkey = c_custkey AND c_nationkey = n1.n_nationkey
      |       AND n1.n_regionkey = r_regionkey AND r_name = 'REGION_1'
      |       AND s_nationkey = n2.n_nationkey
      |       AND o_orderdate BETWEEN '1995-01-01' AND '1996-12-31'
      |       AND p_type = 'ECONOMY') all_nations
      |GROUP BY o_year""".stripMargin,
    mkPlan = { t =>
      val P = t.sch("part"); val Su = t.sch("supplier"); val L = t.sch("lineitem")
      val O = t.sch("orders"); val Cu = t.sch("customer"); val N = t.sch("nation")
      val Re = t.sch("region")
      val (ptype, rname, odate) = (P.idx("p_type"), Re.idx("r_name"), O.idx("o_orderdate"))
      val b = new PlanBuilder("q8")
      val pa = b.scan("part", P, "p_partkey")(r => str(r, ptype) == "ECONOMY")
      val li = b.scan("lineitem", L, "l_partkey", "l_suppkey", "l_orderkey", rev)(_ => true)
      val j1 = b.joinOn(pa, li, "p_partkey" -> "l_partkey", "l_suppkey", "l_orderkey", "rev")
      val su = b.scan("supplier", Su, "s_suppkey", "s_nationkey")(_ => true)
      val j2 = b.joinOn(j1, su, "l_suppkey" -> "s_suppkey", "l_orderkey", "rev", "s_nationkey")
      val od = b.scan("orders", O, "o_orderkey", "o_custkey", oYear)(
        r => { val d = str(r, odate); d >= "1995-01-01" && d <= "1996-12-31" })
      val j3 = b.joinOn(j2, od, "l_orderkey" -> "o_orderkey",
        "o_custkey", "rev", "s_nationkey", "o_year")
      val cu = b.scan("customer", Cu, "c_custkey", "c_nationkey")(_ => true)
      val j4 = b.joinOn(j3, cu, "o_custkey" -> "c_custkey",
        "rev", "s_nationkey", "o_year", "c_nationkey")
      val re = b.scan("region", Re, "r_regionkey")(r => str(r, rname) == "REGION_1")
      val n1 = b.scan("nation", N, "n_nationkey", "n_regionkey")(_ => true)
      val j5 = b.joinOn(re, n1, "r_regionkey" -> "n_regionkey", "n_nationkey")
      val j6 = b.joinOn(j4, j5, "c_nationkey" -> "n_nationkey", "rev", "s_nationkey", "o_year")
      val n2 = b.scan("nation", N, "n_nationkey", "n_name")(_ => true)
      val j7 = b.joinOn(j6, n2, "s_nationkey" -> "n_nationkey", "o_year", "rev", "n_name")
      val out = S("o_year" -> CLong, "mkt_share" -> CDouble)
      b.agg(j7, key = r => Vector(r(0)), nAccs = 2, out) {
        (accs, r) =>
          val v = lng(r, 1)
          if (str(r, 2) == "NATION_06") accs(0) += v
          accs(1) += v
      } { (k, a) =>
        Array[Any](k(0), (a(0).toDouble / 1e4) / (a(1).toDouble / 1e4))
      }
      b.build()
    })

  // ------------------------------------------------------------------- Q9

  val q9: Q = Q("q9", "III",
    Vector("part", "supplier", "lineitem", "partsupp", "orders", "nation"),
    body = """SELECT nation, o_year, CAST(SUM(amount) AS DOUBLE) AS sum_profit
      |FROM (SELECT n_name AS nation, CAST(SUBSTR(o_orderdate, 1, 4) AS BIGINT) AS o_year,
      |       l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity AS amount
      |      FROM part, supplier, lineitem, partsupp, orders, nation
      |      WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey
      |       AND p_partkey = l_partkey AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
      |       AND p_type = 'PROMO') profit
      |GROUP BY nation, o_year""".stripMargin,
    mkPlan = { t =>
      val P = t.sch("part"); val Su = t.sch("supplier"); val L = t.sch("lineitem")
      val Ps = t.sch("partsupp"); val O = t.sch("orders"); val N = t.sch("nation")
      val ptype = P.idx("p_type")
      val b = new PlanBuilder("q9")
      val pa = b.scan("part", P, "p_partkey")(r => str(r, ptype) == "PROMO")
      val li = b.scan("lineitem", L, "l_partkey", "l_suppkey", "l_orderkey", qty, rev)(_ => true)
      val j1 = b.joinOn(pa, li, "p_partkey" -> "l_partkey",
        "l_partkey", "l_suppkey", "l_orderkey", "qty", "rev")
      val su = b.scan("supplier", Su, "s_suppkey", "s_nationkey")(_ => true)
      val j2 = b.joinOn(j1, su, "l_suppkey" -> "s_suppkey",
        "l_partkey", "l_suppkey", "l_orderkey", "qty", "rev", "s_nationkey")
      val ps = b.scan("partsupp", Ps, "ps_partkey", "ps_suppkey", cost)(_ => true)
      val j3 = b.join(j2, ps, Seq("l_partkey", "l_suppkey") -> Seq("ps_partkey", "ps_suppkey"),
        S("l_orderkey" -> CLong, "s_nationkey" -> CLong, "amount" -> CLong)) { (a, p) =>
        val amount = lng(a, 4) - lng(p, 2) * lng(a, 3) * 100L
        Array[Any](lng(a, 2), lng(a, 5), amount)
      }
      val od = b.scan("orders", O, "o_orderkey", oYear)(_ => true)
      val j4 = b.joinOn(j3, od, "l_orderkey" -> "o_orderkey", "s_nationkey", "o_year", "amount")
      val na = b.scan("nation", N, "n_nationkey", "n_name")(_ => true)
      val j5 = b.joinOn(j4, na, "s_nationkey" -> "n_nationkey", "n_name", "o_year", "amount")
      sumAgg(b, j5, Vector(0, 1), Vector(2),
        S("nation" -> CString, "o_year" -> CLong, "sum_profit" -> CDouble)) { (k, a) =>
        Array[Any](k(0), k(1), a(0).toDouble / 1e4)
      }
      b.build()
    })

  // ------------------------------------------------------------------ Q12

  val q12: Q = Q("q12", "-", Vector("orders", "lineitem"),
    body = """SELECT l_shipmode,
      | CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS BIGINT)
      |   AS high_line_count,
      | CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END) AS BIGINT)
      |   AS low_line_count
      |FROM orders, lineitem
      |WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
      | AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
      | AND l_receiptdate >= '1994-01-01' AND l_receiptdate < '1995-01-01'
      |GROUP BY l_shipmode""".stripMargin,
    mkPlan = { t =>
      val O = t.sch("orders"); val L = t.sch("lineitem")
      val b = new PlanBuilder("q12")
      val (mode, ship, commit, receipt) = (L.idx("l_shipmode"), L.idx("l_shipdate"),
        L.idx("l_commitdate"), L.idx("l_receiptdate"))
      val li = b.scan("lineitem", L, "l_orderkey", "l_shipmode") { r =>
        val m = str(r, mode)
        val (sd, cd, rd) = (str(r, ship), str(r, commit), str(r, receipt))
        (m == "MAIL" || m == "SHIP") && cd < rd && sd < cd &&
          rd >= "1994-01-01" && rd < "1995-01-01"
      }
      val od = b.scan("orders", O, "o_orderkey", hi)(_ => true)
      val j1 = b.joinOn(li, od, "l_orderkey" -> "o_orderkey", "l_shipmode", "hi")
      val out = S("l_shipmode" -> CString, "high_line_count" -> CLong, "low_line_count" -> CLong)
      b.agg(j1, key = r => Vector(r(0)), nAccs = 2, out) {
        (accs, r) => val h = lng(r, 1); accs(0) += h; accs(1) += 1L - h
      } { (k, a) => Array[Any](k(0), a(0), a(1)) }
      b.build()
    })

  // ------------------------------------------------------------------ Q14

  val q14: Q = Q("q14", "-", Vector("lineitem", "part"),
    body = """SELECT 100.00 * CAST(SUM(CASE WHEN p_type = 'PROMO'
      |   THEN l_extendedprice * (1 - l_discount) ELSE 0 END) AS DOUBLE)
      | / CAST(SUM(l_extendedprice * (1 - l_discount)) AS DOUBLE) AS promo_revenue
      |FROM lineitem, part
      |WHERE l_partkey = p_partkey AND l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'
      |HAVING COUNT(*) > 0""".stripMargin,
    mkPlan = { t =>
      val L = t.sch("lineitem"); val P = t.sch("part")
      val ship = L.idx("l_shipdate")
      val b = new PlanBuilder("q14")
      val li = b.scan("lineitem", L, "l_partkey", rev)(
        r => { val d = str(r, ship); d >= "1995-09-01" && d < "1995-10-01" })
      val pa = b.scan("part", P, "p_partkey", promo)(_ => true)
      val j1 = b.join(pa, li, Seq("p_partkey") -> Seq("l_partkey"),
        S("promoRev" -> CLong, "rev" -> CLong)) { (p, l) =>
        val rev = lng(l, 1)
        Array[Any](if (lng(p, 1) == 1L) rev else 0L, rev)
      }
      sumAgg(b, j1, Vector(), Vector(0, 1), S("promo_revenue" -> CDouble)) { (_, a) =>
        Array[Any](100.0 * (a(0).toDouble / 1e4) / (a(1).toDouble / 1e4))
      }
      b.build()
    })

  // ------------------------------------------------------------------ Q19

  val q19: Q = Q("q19", "-", Vector("lineitem", "part"),
    body = """SELECT CAST(SUM(l_extendedprice * (1 - l_discount)) AS DOUBLE) AS revenue
      |FROM lineitem, part
      |WHERE p_partkey = l_partkey AND
      | ((p_type = 'SMALL' AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5)
      |  OR (p_type = 'MEDIUM' AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10)
      |  OR (p_type = 'LARGE' AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15))
      |HAVING COUNT(*) > 0""".stripMargin,
    mkPlan = { t =>
      val L = t.sch("lineitem"); val P = t.sch("part")
      val b = new PlanBuilder("q19")
      val li = b.scan("lineitem", L, "l_partkey", qty, rev)(_ => true)
      val pa = b.scan("part", P, "p_partkey", "p_type", "p_size")(_ => true)
      val j1 = b.join(pa, li, Seq("p_partkey") -> Seq("l_partkey"),
        S("rev" -> CLong)) { (p, l) =>
        val ty = str(p, 1); val sz = lng(p, 2); val q = lng(l, 1)
        val ok = (ty == "SMALL" && q >= 1 && q <= 11 && sz >= 1 && sz <= 5) ||
          (ty == "MEDIUM" && q >= 10 && q <= 20 && sz >= 1 && sz <= 10) ||
          (ty == "LARGE" && q >= 20 && q <= 30 && sz >= 1 && sz <= 15)
        if (ok) Array[Any](lng(l, 2)) else null
      }
      sumAgg(b, j1, Vector(), Vector(0), S("revenue" -> CDouble)) { (_, a) =>
        Array[Any](a(0).toDouble / 1e4)
      }
      b.build()
    })

  // --------------------------------------------------------------- registry

  val all: Vector[Q] = Vector(q1, q3, q5, q6, q7, q8, q9, q10, q12, q14, q19)

  /** The paper's 8 representative queries: I = {1, 6}, II = {3, 10},
    * III = {5, 7, 8, 9}.
    */
  val representative: Vector[Q] = Vector(q1, q6, q3, q10, q5, q7, q8, q9)

  val byId: Map[String, Q] = all.map(q => q.id -> q).toMap
}
