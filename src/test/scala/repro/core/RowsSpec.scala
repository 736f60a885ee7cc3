package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.Rows.R

class MoneySpec extends AnyFunSuite {
  test("c2 recovers exact cents of 2-decimal doubles") {
    assert(Money.c2(0.05) == 5)
    assert(Money.c2(0.07) == 7)
    assert(Money.c2(90900.99) == 9090099)
    assert(Money.c2(900.0) == 90000)
    assert(Money.c2(-1000.0) == -100000)
  }

  test("rev4 is price*(1-disc) at scale 1e4, exactly") {
    // 100.00 * (1 - 0.05) = 95.00 -> 950000 at scale 1e4
    assert(Money.rev4(100.0, 0.05) == 950000L)
    assert(Money.rev4(100.0, 0.05) / 1e4 == 95.0)
  }

  test("charge6 is price*(1-disc)*(1+tax) at scale 1e6, exactly") {
    // 100 * 0.95 * 1.08 = 102.60
    assert(Money.charge6(100.0, 0.05, 0.08) == 102600000L)
    assert(Money.charge6(100.0, 0.05, 0.08) / 1e6 == 102.6)
  }

  test("sums in scaled longs stay exact where double sums drift") {
    val vals = Array.fill(100000)(0.01)
    val longSum = vals.map(Money.c2).sum
    assert(longSum / 100.0 == 1000.0)
    // the naive double sum demonstrably drifts — the reason we fix-point
    assert(vals.sum != 1000.0)
  }

  test("year parses ISO dates") {
    assert(Rows.year("1994-03-02") == 1994L)
    assert(Rows.year("2026-12-31") == 2026L)
  }

  test("multisetHash is order-insensitive and content-sensitive") {
    val a: Seq[R] = Seq(Array[Any](1L, "x"), Array[Any](2L, "y"))
    val b: Seq[R] = Seq(Array[Any](2L, "y"), Array[Any](1L, "x"))
    val c: Seq[R] = Seq(Array[Any](2L, "y"), Array[Any](1L, "z"))
    assert(Rows.multisetHash(a) == Rows.multisetHash(b))
    assert(Rows.multisetHash(a) != Rows.multisetHash(c))
    assert(Rows.multisetHash(Nil) == 0L)
  }
}

class SchSpec extends AnyFunSuite {
  private val s = Sch.of("k" -> CLong, "v" -> CDouble, "name" -> CString)

  test("idx resolves columns and rejects unknowns") {
    assert(s.idx("k") == 0)
    assert(s.idx("name") == 2)
    assertThrows[NoSuchElementException](s.idx("nope"))
  }

  test("rowBytes estimates by column types") {
    assert(s.rowBytes == 8 + 8 + 16 + 8)
  }

  test("toStruct maps engine types to Spark types") {
    val st = s.toStruct
    assert(st.fields.map(_.dataType.typeName).toSeq == Seq("long", "double", "string"))
  }
}

class IngestSpec extends SparkSpec {
  test("ingest converts integral/date columns and round-trips via toDf") {
    import org.apache.spark.sql.functions._
    import org.apache.spark.sql.types._
    val df = spark.range(3).select(
      col("id"),
      col("id").cast(IntegerType) as "i",
      (col("id") * 1.5) as "d",
      lit("1994-01-02").cast(DateType) as "dt",
      lit("tag") as "s")
    val (sch, rows) = Rows.ingest(df)
    assert(sch.cols.map(_._2) == Vector(CLong, CLong, CDouble, CString, CString))
    assert(rows.length == 3)
    assert(Rows.lng(rows(1), 1) == 1L)
    assert(Rows.str(rows(0), 3) == "1994-01-02")
    val back = Rows.toDf(spark, sch, rows.toSeq)
    assert(back.count() == 3)
    assert(back.schema.fields.map(_.dataType).forall(t =>
      t == LongType || t == DoubleType || t == StringType))
  }
}
