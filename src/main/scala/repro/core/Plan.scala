package repro.core

import repro.core.Rows.{R, lng}
import scala.collection.mutable
import scala.runtime.Statics
import scala.util.hashing.MurmurHash3

/** Physical operators of the pipelined engine (paper Fig 1 / §IV-A).
  *
  * Every stage runs as `numChannels` parallel channels; each channel is a
  * sequence of tasks named (stage, channel, seq). Stateful operators carry
  * a per-channel state variable (hash tables, aggregation maps).
  */
sealed trait StageOp {
  /** A task with lineage `rec` sends its output to the consumer channels. */
  def emits(rec: LineageRec): Boolean = true
}

/** Source stage: reads pre-split batches of `table` from replayable object
  * storage, applying the fused filter/project/pre-aggregation `fuse`
  * ("aggregation pushdown", paper §V-C). One task reads one batch.
  */
final case class InputOp(table: String, fuse: Array[R] => Array[R]) extends StageOp

/** Streaming symmetric hash join: each arriving batch is inserted into its
  * side's hash table and probed against the other side's table. The state
  * variable is the pair of hash tables — it grows monotonically, which is
  * exactly the state the paper argues makes checkpointing O(N^2).
  * Each side's key is one or two `CLong` columns ([[JoinKey]]). `emit`
  * builds an output row from a (left, right) pair, or returns null to drop
  * it (join-level residual predicates); the left side is the stage's first
  * upstream. [[PlanBuilder.joinOn]] builds the emit of a join that selects
  * columns; TpchLite writes the emit by hand where it filters on a residual
  * predicate (Q5, Q7) or computes a value from both sides (Q9's `amount`,
  * Q14's `promoRev`, Q19's filtered `rev`).
  */
final case class JoinOp(lKey: JoinKey, rKey: JoinKey, emit: (R, R) => R) extends StageOp

/** A join side's key: the `CLong` column `a`, or the pair of columns
  * (`a`, `b`); `b` is -1 for a one-column key. The join table keys a row
  * by (`first`, `second`), with `second` 0 for a one-column key. `hash`,
  * the producers' partitioning hash, is the `hashCode` of the boxed key, a
  * `java.lang.Long` or a `Tuple2` of two, computed without boxing; the
  * recorded simulated numbers depend on this partitioning.
  */
final case class JoinKey(a: Int, b: Int) {
  def first(r: R): Long = lng(r, a)
  def second(r: R): Long = if (b < 0) 0L else lng(r, b)
  def hash(r: R): Int =
    if (b < 0) java.lang.Long.hashCode(lng(r, a)) else JoinKey.pairHash(lng(r, a), lng(r, b))
}

object JoinKey {
  /** The key of the columns `names` of `sch`: one or two, each a `CLong`. */
  def of(sch: Sch, names: Seq[String], plan: String): JoinKey = {
    require(names.size == 1 || names.size == 2,
      s"join key ${names.mkString(",")} has ${names.size} columns, not 1 or 2, in plan $plan")
    val at = names.map { n =>
      val i = sch.idx(n)
      require(sch.cols(i)._2 == CLong, s"join key $n is ${sch.cols(i)._2}, not CLong, in plan $plan")
      i
    }
    JoinKey(at.head, if (at.size == 2) at(1) else -1)
  }

  private val tuple2Seed = Statics.mix(MurmurHash3.productSeed, "Tuple2".hashCode)

  /** `(x, y).hashCode`, computed without boxing. */
  def pairHash(x: Long, y: Long): Int =
    Statics.finalizeHash(Statics.mix(Statics.mix(tuple2Seed, Statics.longHash(x)), Statics.longHash(y)), 2)
}

/** Streaming aggregation: state is a key -> Array[Long] accumulator map
  * (all accumulators are exact fixed-point sums/counts); `key` is both the
  * grouping key and the key `finish` receives. Emits its output in a single
  * flush task once every upstream channel is done and fully consumed; its
  * consume tasks emit nothing.
  */
final case class AggOp(
  key: R => Vector[Any],
  nAccs: Int,
  update: (Array[Long], R) => Unit,
  finish: (Vector[Any], Array[Long]) => R,
) extends StageOp {
  override def emits(rec: LineageRec): Boolean = rec == FlushRec
}

/** One stage of the plan. `outHash` is the hash of a row's partitioning
  * key towards the consumer stage, its join key or its group; the row goes
  * to consumer channel `outHash(row)` mod C (null for the final stage,
  * whose one consumer, the head-node collector, gets the whole flush
  * output).
  */
final case class Stage(
  id: Int,
  op: StageOp,
  upstreams: Vector[Int],
  schema: Sch,
  outHash: R => Int,
) {
  def stateful: Boolean = op match {
    case _: InputOp => false
    case _          => true
  }
}

/** A compiled query plan: stages in topological order (upstreams < id),
  * the last stage is always an AggOp whose flush is the query result, and
  * no other stage aggregates.
  */
final case class Plan(stages: Vector[Stage], name: String) {
  require(stages.nonEmpty, "empty plan")
  stages.zipWithIndex.foreach { case (s, i) =>
    require(s.id == i, s"stage ids must be dense: ${s.id} at $i")
    s.upstreams.foreach(u => require(u < s.id, s"upstream $u not before stage ${s.id}"))
    require(s.upstreams.distinct == s.upstreams, s"stage ${s.id} lists an upstream twice in $name")
  }
  require(stages.last.op.isInstanceOf[AggOp], s"plan $name must end in an aggregation")
  stages.init.foreach(s => require(!s.op.isInstanceOf[AggOp],
    s"plan $name aggregates at stage ${s.id}, before its final stage"))

  val last: Int = stages.last.id
  def resultSchema: Sch = stages.last.schema

  /** Each stage's one consumer, the stage that lists it upstream (none for the final stage). */
  val consumer: Vector[Option[Int]] = stages.map { s =>
    val cs = stages.filter(_.upstreams.contains(s.id))
    require(cs.size <= 1, s"stage ${s.id} feeds ${cs.size} consumers in plan $name")
    cs.headOption.map(_.id)
  }
}

/** A column an input stage computes from a row of its table: a name, a
  * type, the table columns it `reads`, and `f(row, at)`, where `at(k)` is
  * the index of the k-th column read, resolved once when the plan is built.
  */
final case class Computed(name: String, ty: ColType, reads: String*)(val f: (R, Array[Int]) => Any)

/** Imperative builder for tree-shaped plans. Partitioning keys of producer
  * stages are fixed when their consumer is declared (a producer partitions
  * its output by the consumer's key for that side). Join keys are named
  * and resolved to column indices here, when the plan is built.
  */
final class PlanBuilder(val name: String) {
  private val buf = mutable.ArrayBuffer.empty[Stage]

  /** Declare a stage; its `outHash` is set when its consumer is declared. */
  private def add(op: StageOp, upstreams: Vector[Int], schema: Sch): Int = {
    buf += Stage(buf.size, op, upstreams, schema, null)
    buf.size - 1
  }

  def input(table: String, schema: Sch)(fuse: Array[R] => Array[R]): Int =
    add(InputOp(table, fuse), Vector.empty, schema)

  /** Input stage that emits the columns `cols` of the rows of `table` that
    * pass `keep`. Each column is the name of a column of the table's schema
    * `src`, copied with its type, or a [[Computed]] column. All names,
    * computed columns' `reads` included, are resolved to indices once,
    * here: an unknown name, or a computed column named like a column of
    * `src`, throws.
    */
  def scan(table: String, src: Sch, cols: Any*)(keep: R => Boolean): Int = {
    val resolved = cols.map {
      case n: String => val i = src.idx(n); (src.cols(i), i, null)
      case c: Computed =>
        require(!src.names.contains(c.name),
          s"computed column ${c.name} shadows a column of $table in plan $name")
        val at = c.reads.map(src.idx).toArray
        ((c.name, c.ty), -1, (r: R) => c.f(r, at))
      case other => throw new IllegalArgumentException(
        s"scan column $other is neither a name nor a Computed in plan $name")
    }
    val from = resolved.map(_._2).toArray
    val get = resolved.map(_._3).toArray
    input(table, Sch(resolved.map(_._1).toVector))(PlanBuilder.filterProject(keep, { r =>
      val o = new Array[Any](from.length)
      var j = 0
      while (j < from.length) {
        o(j) = if (get(j) == null) PlanBuilder.rebox(r(from(j))) else get(j)(r)
        j += 1
      }
      o
    }))
  }

  /** Equi-join of `left` and `right` on the named key columns
    * `on = (leftKey, rightKey)`, keeping the columns `cols`. Each output
    * column comes from the one side that has it; a name on both sides or on
    * neither fails here, when the plan is built.
    */
  def joinOn(left: Int, right: Int, on: (String, String), cols: String*): Int = {
    val (ls, rs) = (buf(left).schema, buf(right).schema)
    val sides = cols.toArray.map { n =>
      (ls.names.contains(n), rs.names.contains(n)) match {
        case (true, false) => (true, ls.idx(n))
        case (false, true) => (false, rs.idx(n))
        case (both, _) => throw new IllegalArgumentException(
          s"join column $n is on ${if (both) "both sides" else "neither side"} in plan $name")
      }
    }
    val fromLeft = sides.map(_._1)
    val from = sides.map(_._2)
    val schema = Sch(sides.toVector.map { case (l, i) => if (l) ls.cols(i) else rs.cols(i) })
    // a side kept whole and in order is passed on as is: rows are never mutated
    val emit: (R, R) => R =
      if (schema == ls) (l, _) => l
      else if (schema == rs) (_, r) => r
      else { (l, r) =>
        val o = new Array[Any](from.length)
        var j = 0
        while (j < from.length) {
          o(j) = PlanBuilder.rebox(if (fromLeft(j)) l(from(j)) else r(from(j)))
          j += 1
        }
        o
      }
    join(left, right, Seq(on._1) -> Seq(on._2), schema)(emit)
  }

  /** Equi-join of `left` and `right` on the key columns named by
    * `on = (leftKey, rightKey)`, one or two `CLong` columns per side, with
    * output rows built by `emit`. A key of another type, or key lists of
    * different lengths, fail here, when the plan is built.
    */
  def join(left: Int, right: Int, on: (Seq[String], Seq[String]),
           schema: Sch)(emit: (R, R) => R): Int = {
    require(buf(left).outHash == null && buf(right).outHash == null,
      "a stage can feed only one consumer")
    require(on._1.size == on._2.size,
      s"join keys ${on._1.mkString(",")} and ${on._2.mkString(",")} differ in length in plan $name")
    val lKey = JoinKey.of(buf(left).schema, on._1, name)
    val rKey = JoinKey.of(buf(right).schema, on._2, name)
    buf(left) = buf(left).copy(outHash = lKey.hash)
    buf(right) = buf(right).copy(outHash = rKey.hash)
    add(JoinOp(lKey, rKey, emit), Vector(left, right), schema)
  }

  def agg(up: Int, key: R => Vector[Any], nAccs: Int,
          schema: Sch)(update: (Array[Long], R) => Unit)(
          finish: (Vector[Any], Array[Long]) => R): Int = {
    require(buf(up).outHash == null, "a stage can feed only one consumer")
    buf(up) = buf(up).copy(outHash = key(_).hashCode)
    add(AggOp(key, nAccs, update, finish), Vector(up), schema)
  }

  def build(): Plan = Plan(buf.toVector, name)
}

object PlanBuilder {
  /** Input kernel that maps the rows passing `keep` through `project`. */
  private[core] def filterProject(keep: R => Boolean, project: R => R): Array[R] => Array[R] =
    batch => {
      val out = mutable.ArrayBuffer.empty[R]
      var i = 0
      while (i < batch.length) { val r = batch(i); if (keep(r)) out += project(r); i += 1 }
      out.toArray
    }

  /** A new box holding `v`'s value. A copied row gets its own boxes, as a
    * row built by hand (`Array[Any](lng(r, i), ..)`) does, so its values are
    * allocated next to it: rows sharing the boxes of wide table rows made
    * the downstream hash, probe and output-hash steps measurably slower.
    */
  private def rebox(v: Any): Any = v match {
    case l: java.lang.Long   => java.lang.Long.valueOf(l.longValue)
    case d: java.lang.Double => java.lang.Double.valueOf(d.doubleValue)
    case other               => other
  }
}
