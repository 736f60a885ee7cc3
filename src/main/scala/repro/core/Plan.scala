package repro.core

import repro.core.Rows.R
import scala.collection.mutable

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
  * `emit` may return null to drop a pair (join-level residual predicates).
  */
final case class JoinOp(
  leftUp: Int, rightUp: Int,
  lKey: R => Any, rKey: R => Any,
  emit: (R, R) => R,
) extends StageOp

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

/** One stage of the plan. `outKey` is the partitioning key towards the
  * consumer stage (null for the final stage, whose one consumer, the
  * head-node collector, gets the whole flush output).
  */
final case class Stage(
  id: Int,
  op: StageOp,
  upstreams: Vector[Int],
  schema: Sch,
  outKey: R => Any,
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
  }
  require(stages.last.op.isInstanceOf[AggOp], s"plan $name must end in an aggregation")
  stages.init.foreach(s => require(!s.op.isInstanceOf[AggOp],
    s"plan $name aggregates at stage ${s.id}, before its final stage"))

  val last: Int = stages.last.id
  def resultSchema: Sch = stages.last.schema

  /** Direct consumers of each stage (at most one in our tree-shaped plans). */
  val consumers: Vector[Vector[Int]] = {
    val m = Array.fill(stages.size)(Vector.empty[Int])
    stages.foreach(s => s.upstreams.foreach(u => m(u) :+= s.id))
    m.toVector
  }
}

/** A column an input stage computes from a row of its table: a name, a
  * type, the table columns it `reads`, and `f(row, at)`, where `at(k)` is
  * the index of the k-th column read, resolved once when the plan is built.
  */
final case class Computed(name: String, ty: ColType, reads: String*)(val f: (R, Array[Int]) => Any)

/** Imperative builder for tree-shaped plans. Partitioning keys of producer
  * stages are fixed when their consumer is declared (a producer partitions
  * its output by the consumer's key for that side).
  */
final class PlanBuilder(val name: String) {
  import PlanBuilder.Pending
  private val buf = mutable.ArrayBuffer.empty[Pending]

  def input(table: String, schema: Sch)(fuse: Array[R] => Array[R]): Int = {
    buf += Pending(InputOp(table, fuse), Vector.empty, schema, null)
    buf.size - 1
  }

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
    val (lk, rk) = (ls.idx(on._1), rs.idx(on._2))
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
    join(left, right, r => r(lk), r => r(rk), schema)(emit)
  }

  def join(left: Int, right: Int, lKey: R => Any, rKey: R => Any,
           schema: Sch)(emit: (R, R) => R): Int = {
    require(buf(left).outKey == null && buf(right).outKey == null,
      "a stage can feed only one consumer")
    buf(left).outKey = lKey
    buf(right).outKey = rKey
    buf += Pending(JoinOp(left, right, lKey, rKey, emit), Vector(left, right), schema, null)
    buf.size - 1
  }

  def agg(up: Int, key: R => Vector[Any], nAccs: Int,
          schema: Sch)(update: (Array[Long], R) => Unit)(
          finish: (Vector[Any], Array[Long]) => R): Int = {
    require(buf(up).outKey == null, "a stage can feed only one consumer")
    buf(up).outKey = key
    buf += Pending(AggOp(key, nAccs, update, finish), Vector(up), schema, null)
    buf.size - 1
  }

  def build(): Plan =
    Plan(buf.toVector.zipWithIndex.map { case (p, i) =>
      Stage(i, p.op, p.upstreams, p.schema, p.outKey)
    }, name)
}

object PlanBuilder {
  /** A declared stage; its `outKey` is set when its consumer is declared. */
  private final case class Pending(
    op: StageOp, upstreams: Vector[Int], schema: Sch, var outKey: R => Any)

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
