package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import scala.jdk.CollectionConverters._

/** Column types flowing through the engine. Dates are carried as ISO-8601
  * strings (lexicographic order == date order), money as 2-decimal doubles
  * that are aggregated in exact fixed point (see [[Money]]).
  */
sealed trait ColType
case object CLong extends ColType
case object CDouble extends ColType
case object CString extends ColType

/** Engine schema: ordered (name, type) columns with O(1) index lookup. */
final case class Sch(cols: Vector[(String, ColType)]) {
  val names: Vector[String] = cols.map(_._1)
  private val index: Map[String, Int] = names.zipWithIndex.toMap

  /** Index of column `n`; throws with a helpful message if absent. */
  def idx(n: String): Int =
    index.getOrElse(n, throw new NoSuchElementException(s"column $n not in ${names.mkString(",")}"))

  def size: Int = cols.size

  /** Estimated wire/disk bytes per row (used by the cost model only). */
  val rowBytes: Long = cols.map {
    case (_, CLong)   => 8L
    case (_, CDouble) => 8L
    case (_, CString) => 16L
  }.sum + 8L

  def toStruct: StructType = StructType(cols.map {
    case (n, CLong)   => StructField(n, LongType, nullable = false)
    case (n, CDouble) => StructField(n, DoubleType, nullable = false)
    case (n, CString) => StructField(n, StringType, nullable = false)
  })
}

object Sch {
  def of(cols: (String, ColType)*): Sch = Sch(cols.toVector)
}

object Rows {
  /** Engine row: positional, schema-described values (Long/Double/String). */
  type R = Array[Any]

  def lng(r: R, i: Int): Long = r(i).asInstanceOf[Long]
  def dbl(r: R, i: Int): Double = r(i).asInstanceOf[Double]
  def str(r: R, i: Int): String = r(i).asInstanceOf[String]

  /** Ingest a Spark DataFrame into engine rows, converting integral types to
    * Long and dates/timestamps to ISO strings. Ingestion order is the
    * DataFrame's collect order, which is deterministic for SynthData.
    */
  def ingest(df: DataFrame): (Sch, Array[R]) = {
    val sch = Sch(df.schema.fields.toVector.map { f =>
      f.dataType match {
        case LongType | IntegerType | ShortType | ByteType => (f.name, CLong)
        case DoubleType | FloatType                        => (f.name, CDouble)
        case DateType | StringType                         => (f.name, CString)
        case dt => throw new IllegalArgumentException(s"unsupported ingest type $dt for ${f.name}")
      }
    })
    val rows = df.collect().map { row =>
      val arr = new Array[Any](sch.size)
      var i = 0
      while (i < sch.size) {
        arr(i) = row.get(i) match {
          case l: Long              => l
          case n: Int               => n.toLong
          case s: Short             => s.toLong
          case b: Byte              => b.toLong
          case d: Double            => d
          case f: Float             => f.toDouble
          case d: java.sql.Date     => d.toString
          case s: String            => s
          case other => throw new IllegalArgumentException(s"unsupported value $other")
        }
        i += 1
      }
      arr
    }
    (sch, rows)
  }

  /** Materialize engine rows as a Spark DataFrame (for the DuckDB oracle). */
  def toDf(spark: SparkSession, sch: Sch, rows: Seq[R]): DataFrame = {
    val jrows = rows.map(r => Row.fromSeq(r.toSeq)).asJava
    spark.createDataFrame(jrows, sch.toStruct)
  }

  /** Order-insensitive content digest of a row multiset — used to assert
    * that replayed tasks regenerate exactly the outputs they produced
    * before a failure.
    */
  def multisetHash(rows: Iterable[R]): Long = {
    var acc = 0L
    rows.foreach { r =>
      var h = 1125899906842597L
      r.foreach { v => h = h * 31 + (if (v == null) 0 else v.hashCode()) }
      acc += h // commutative combine => order-insensitive
    }
    acc
  }

  /** Extract year from an ISO date string ("1994-03-02" -> 1994). */
  def year(iso: String): Long = {
    (iso.charAt(0) - '0') * 1000L + (iso.charAt(1) - '0') * 100L +
      (iso.charAt(2) - '0') * 10L + (iso.charAt(3) - '0')
  }
}

/** Exact fixed-point helpers for 2-decimal money columns.
  *
  * price, discount, tax, supplycost are generated with exactly two decimals,
  * so `round(x*100)` recovers the exact integer cents. Products keep the
  * scales explicit: price*(1-disc) is scale 1e4, price*(1-disc)*(1+tax) is
  * scale 1e6. DuckDB/Spark compute the same quantities with DECIMAL casts,
  * so sums agree bit-exactly after conversion to double.
  */
object Money {
  /** Exact cents of a 2-decimal double. */
  def c2(x: Double): Long = math.round(x * 100.0)

  /** price*(1-discount), scale 1e4. */
  def rev4(price: Double, disc: Double): Long = c2(price) * (100L - c2(disc))

  /** price*(1-discount)*(1+tax), scale 1e6. */
  def charge6(price: Double, disc: Double, tax: Double): Long =
    c2(price) * (100L - c2(disc)) * (100L + c2(tax))
}
