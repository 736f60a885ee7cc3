package repro.core

import repro.core.Rows.R
import repro.ft._
import repro.sim.{Serial, Sim, Slots}
import scala.collection.mutable

/** Execution mode: pipelined (Quokka) vs stagewise/blocking (SparkSQL-like,
  * used for the Fig 7 ablation and as the Spark baseline).
  */
sealed trait ExecMode
case object Pipelined extends ExecMode
case object Stagewise extends ExecMode

/** Task-dependency policy: dynamic (consume as many committed outputs as are
  * available — the paper's scheduling strategy) vs static batches of k
  * (the Fig 8 static-lineage strategies).
  */
sealed trait Batching
case object Dynamic extends Batching {
  /** Fewest outputs of a not-done upstream channel that one task consumes. */
  final val MinRun = 4
}
final case class StaticBatch(k: Int) extends Batching { require(k > 0) }

/** One engine run's configuration ("system"). Its defaults are the
  * evaluated Quokka on the 4-worker cluster (`Systems.quokka(4)`).
  */
final case class EngineConfig(
  workers: Int,
  mode: ExecMode = Pipelined,
  batching: Batching = Dynamic,
  ft: Ft = Wal,
  cost: CostParams = CostParams(),
  /** Relative single-node kernel speed (SparkSQL row kernels ~1.7x slower
    * than Quokka's vectorized DuckDB/Polars kernels, per paper §V-A).
    */
  kernelFactor: Double = 1.0,
  channelsPerWorker: Int = 1,
  inputBatchRows: Int = 2048,
  /** Per-stage scheduling barrier cost in stagewise mode (DAGScheduler). */
  stageOverheadS: Double = 0.0,
  /** Lineage determined before execution (Spark/Trino/Fig 8 static
    * strategies): no per-task GCS write-ahead cost is charged.
    */
  staticLineage: Boolean = false,
  seed: Long = 7,
) {
  require(workers >= 1)
  def channels: Int = workers * channelsPerWorker
}

/** A worker machine: CPU slots, NVMe queue, NIC uplink, reliable-store
  * uplink, and a kill time.
  */
private[core] final class WorkerRt(val id: Int, cores: Int) {
  val cpu = new Slots(cores)
  val disk = new Serial
  val net = new Serial
  val storeLink = new Serial
  var deadAt: Double = Double.PositiveInfinity
  def alive(t: Double): Boolean = t < deadAt
}

/** A join channel's state: each side's rows by key. */
private[core] final class JoinState {
  val left = new JoinTable
  val right = new JoinTable
  def rows: Long = left.size + right.size
}

private[core] final class AggState {
  val m = mutable.LinkedHashMap.empty[Vector[Any], Array[Long]]
  var rows = 0L
}

/** Runtime state of one channel (paper: one channel of a stage, hosted by
  * one TaskManager). `epoch` invalidates in-flight events across a rewind.
  * `idx` is the channel's dense GCS index. The input-side tables are
  * indexed by upstream position: the p-th of the stage's `ups` upstream
  * channels, in (upstream, channel) order.
  */
private[core] final class ChannelRt(val stage: Int, val ch: Int, val idx: Int, ups: Int) {
  var worker: Int = 0
  var epoch: Int = 0
  var seq: Int = 0
  var busy = false
  var flushed = false
  /** Outputs of each upstream channel consumed so far (a seq watermark). */
  val consumed = new Array[Int](ups)
  /** Arrived, unconsumed slices of each upstream channel, by seq. */
  val mailbox = Array.fill(ups)(new SeqBuf[Array[R]])
  /** End of the run of arrived slices that starts at `consumed(p)`. */
  val arrivedEnd = new Array[Int](ups)
  var join: JoinState = null
  var agg: AggState = null
  var stateRowsAtCkpt = 0L
  /** GCS poll gate: no consume task may launch before this time. */
  var nextPollAt = 0.0
  var pollWakeScheduled = false
  def stateRows: Long = {
    if (join != null) join.rows else if (agg != null) agg.rows else 0L
  }

  /** File an arriving slice unless a copy is already there. */
  def arrive(p: Int, seq: Int, rows: Array[R]): Unit = {
    val mb = mailbox(p)
    if (!mb.contains(seq)) {
      mb(seq) = rows
      var end = arrivedEnd(p)
      while (mb.contains(end)) end += 1
      arrivedEnd(p) = end
    }
  }

  /** Drop the slices of upstream position `p` from seq `from` on. */
  def truncate(p: Int, from: Int): Unit = {
    mailbox(p).truncate(from)
    arrivedEnd(p) = math.min(arrivedEnd(p), from)
  }

  /** Forget every slice and watermark (the channel is rewound). */
  def clearInputs(): Unit = {
    mailbox.foreach(_.clear())
    java.util.Arrays.fill(consumed, 0)
    java.util.Arrays.fill(arrivedEnd, 0)
  }
}

/** A task whose downstream push hit a dead worker: its commit is withheld
  * (Algorithm 1's "push results failed" branch) until recovery resolves it.
  */
private[core] final case class HeldTask(
  stage: Int, ch: Int, epoch: Int, seq: Int, rec: LineageRec,
  slices: Array[Array[R]], readyAt: Double)

/** A persisted task output, its slices by consumer channel and its bytes,
  * kept at `where`: a worker, whose disk holds it as an unreliable upstream
  * backup, or [[Engine.Store]], the reliable store, for a spooled copy.
  */
private[core] final case class Copy(where: Int, slices: Array[Array[R]], bytes: Long)

/** Counters for the overhead/recovery experiments. */
final class Metrics {
  /** Tasks run by channels: first executions and replays, aborted ones included. */
  var tasks = 0L
  /** Tasks run inside their channel's committed prefix, i.e. replays. */
  var replayTasks = 0L
  /** Recovery re-deliveries of a partition from its copy, on a disk or in the store. */
  var repushJobs = 0L
  /** Lost input partitions that recovery re-executed on a live worker. */
  var rereadJobs = 0L
  /** Channels rewound and reassigned because their worker died. */
  var rewoundChannels = 0L
  /** Tasks whose CPU ended after their worker died or their channel was rewound. */
  var abortedTasks = 0L
  /** Bytes of every slice delivered: over a NIC, on the sending worker or from the store. */
  var shuffleBytes = 0L
  /** Bytes of upstream backups written to disk, by tasks and by re-reads. */
  var backupBytes = 0L
  /** Bytes of task outputs spooled to the reliable store. */
  var spoolBytes = 0L
  /** Bytes of channel state written to the reliable store by checkpoints. */
  var ckptBytes = 0L
  /** Committed partitions that recovery plans restored: re-pushed, re-read or replayed. */
  var recoveredPartitions = 0L
}

final case class RunResult(
  rows: Vector[R], schema: Sch, simSeconds: Double,
  metrics: Metrics, gcsTxns: Long, gcsLineageBytes: Long)

/** The pipelined query engine over the discrete-event cluster, implementing
  * write-ahead lineage (Algorithm 1). Failure recovery (Algorithm 2) lives
  * in [[Recovery]].
  *
  * Execution is eager on data and simulated on time: kernels run at task
  * launch (single-threaded, deterministic), while the simulated clock
  * charges CPU/disk/network/store costs and decides interleavings, failures
  * and recovery behaviour. Replayed tasks must regenerate bit-identical
  * output multisets — checked on every replay.
  */
final class Engine(
  val cfg: EngineConfig,
  val plan: Plan,
  tables: Map[String, Array[R]],
  failures: Seq[(Int, Double)] = Nil,
) {
  import cfg.cost

  private[core] val sim = new Sim
  private[core] val workers = Vector.tabulate(cfg.workers)(new WorkerRt(_, cost.coresPerWorker))
  private[core] val C = cfg.channels
  private[core] val gcs = new Gcs(plan.stages.size, C)
  val metrics = new Metrics

  /** GCS index of each upstream position of each stage. */
  private val upIdx: Vector[Array[Int]] =
    plan.stages.map(s => (for (u <- s.upstreams; c <- 0 until C) yield gcs.index(u, c)).toArray)
  /** Index of each stage among its consumer's upstreams (0 for the final stage). */
  private val upPos: Array[Int] = plan.stages.map { s =>
    plan.consumer(s.id).fold(0)(stageOf(_).upstreams.indexOf(s.id))
  }.toArray

  private[core] val channels: Vector[Vector[ChannelRt]] =
    plan.stages.map(s => Vector.tabulate(C) { c =>
      val ch = new ChannelRt(s.id, c, gcs.index(s.id, c), s.upstreams.size * C)
      ch.worker = c % cfg.workers
      s.op match {
        case _: JoinOp => ch.join = new JoinState
        case _: AggOp  => ch.agg = new AggState
        case _         =>
      }
      ch
    })

  /** The head node, which hosts the GCS and the collector and never fails. */
  private val headNode: Int = cfg.workers
  /** The result collector: a one-channel consumer of the final stage, on the
    * head node; it has no GCS entry and runs no tasks.
    */
  private[core] val collector = new ChannelRt(plan.stages.size, 0, -1, C)
  collector.worker = headNode
  /** Consumer channels of each stage: its consumer stage's, or the collector. */
  private[core] val consumerChs: Vector[Vector[ChannelRt]] =
    plan.stages.map(s => plan.consumer(s.id).fold(Vector(collector))(channels(_)))

  /** Global, replayable input batches by stage id ("files on S3"; empty
    * for stateful stages), read as [[batchOf]] names.
    */
  private[core] val inputBatches: Vector[Vector[Array[R]]] = plan.stages.map {
    case Stage(_, InputOp(table, _), _, _, _) =>
      val rows = tables.getOrElse(table, throw new NoSuchElementException(s"table $table missing"))
      rows.grouped(cfg.inputBatchRows).toVector
    case _ => Vector.empty
  }

  /** Persisted task outputs, by channel index and seq. A worker's death
    * drops the copies on its disk; store copies survive every failure.
    */
  private[core] val copies = Vector.fill(plan.stages.size * C)(new SeqBuf[Copy])
  /** Content digest of each task's output — replay-identity invariant. */
  private[core] val outputHash = Vector.fill(plan.stages.size * C)(new SeqBuf[java.lang.Long])
  /** Tasks whose commit is withheld until recovery. */
  private[core] val held = mutable.ArrayBuffer.empty[HeldTask]

  private[core] var barrier = false
  private var finished = false
  private var finishT = 0.0
  private val stageReady = Array.tabulate(plan.stages.size)(s =>
    cfg.mode == Pipelined || plan.stages(s).upstreams.isEmpty)
  private[core] val rng = new scala.util.Random(cfg.seed)
  /** GCS latency of a lineage commit; static lineage is known up front. */
  private[core] val commitLatS: Double = if (cfg.staticLineage) 0.0 else cost.gcsTxnS

  // ---------------------------------------------------------------- helpers

  private def stageOf(id: Int): Stage = plan.stages(id)

  /** The batch that input task (c, seq) reads: seq * C + c of its stage's table. */
  private[core] def batchOf(c: Int, seq: Int): Int = seq * C + c

  /** Launch what `ch` can run and check whether it is done; the collector
    * runs no tasks.
    */
  private[core] def poke(ch: ChannelRt): Unit =
    if (ch ne collector) { tryLaunch(ch); checkDone(ch) }

  /** Worker `w`, or the head node, is alive. */
  private def live(w: Int): Boolean = w == headNode || workers(w).alive(sim.now)

  private[core] def pokeAll(): Unit =
    for (st <- channels; ch <- st) poke(ch)

  /** Position of producer channel (ps, pc) among its consumer's upstream
    * channels.
    */
  private[core] def slot(ps: Int, pc: Int): Int = upPos(ps) * C + pc

  /** Length of the consecutive run of consumable outputs of upstream
    * position `p` starting at the consumer's watermark: each must have
    * committed lineage (the core invariant) and have arrived in the mailbox.
    */
  private def availRun(ch: ChannelRt, p: Int): Int =
    math.max(0, math.min(gcs.committedCount(upIdx(ch.stage)(p)), ch.arrivedEnd(p)) - ch.consumed(p))

  // ------------------------------------------------------------- scheduling

  private[core] def tryLaunch(ch: ChannelRt): Unit = {
    if (finished || barrier || ch.busy) return
    val w = workers(ch.worker)
    if (!w.alive(sim.now)) return
    if (ch.seq < gcs.committedCount(ch.idx)) {
      if (pollGateOpen(ch)) { ch.nextPollAt = sim.now + cost.pollIntervalS; tryReplay(ch) }
      return
    }
    if (!stageReady(ch.stage)) return
    if (!stageOf(ch.stage).stateful) {
      val b = batchOf(ch.ch, ch.seq)
      if (b < inputBatches(ch.stage).size) {
        val (out, cpu) = runInput(stageOf(ch.stage), inputBatches(ch.stage)(b))
        finishTask(ch, ReadRec, out, cpu)
      }
    } else if (pollGateOpen(ch)) pickConsume(ch) match {
      case Some(rec) =>
        ch.nextPollAt = sim.now + cost.pollIntervalS
        runConsume(ch, rec)
      case None => if (ch.agg != null && readyToFlush(ch)) runFlush(ch)
    }
  }

  /** Stateful channels poll the GCS on a quantum: work accumulated since
    * the previous task is taken as one batch at the next poll, keeping
    * dynamic batching coarse instead of trickling single partitions (and
    * keeping per-stage output counts from multiplying by the channel
    * count). Returns false and schedules a wake-up if the gate is closed.
    */
  private def pollGateOpen(ch: ChannelRt): Boolean = {
    if (sim.now >= ch.nextPollAt) true
    else {
      if (!ch.pollWakeScheduled) {
        ch.pollWakeScheduled = true
        sim.at(ch.nextPollAt) { ch.pollWakeScheduled = false; poke(ch) }
      }
      false
    }
  }

  /** Pick (upstream position, count) per the batching policy. Dynamic takes
    * the longest available run of at least `Dynamic.MinRun`, or a done
    * upstream's remainder (maximize-batch, paper §IV-A); StaticBatch(k)
    * takes exactly k, or the remainder once the upstream channel is done.
    */
  private def pickConsume(ch: ChannelRt): Option[ConsumeRec] = {
    val ups = upIdx(ch.stage)
    cfg.batching match {
      case Dynamic =>
        var best = 0
        var bestLen = 0
        var p = 0
        while (p < ups.length) {
          val len = availRun(ch, p)
          val qualifies = len >= Dynamic.MinRun || (len > 0 && gcs.channelDone(ups(p)))
          if (qualifies && len > bestLen) { best = p; bestLen = len }
          p += 1
        }
        if (bestLen > 0) Some(ConsumeRec(best, bestLen)) else None
      case StaticBatch(k) =>
        ups.indices.collectFirst {
          case p if availRun(ch, p) >= k => ConsumeRec(p, k)
        }.orElse(ups.indices.collectFirst {
          case p if gcs.channelDone(ups(p)) && {
            val rem = gcs.committedCount(ups(p)) - ch.consumed(p)
            rem > 0 && availRun(ch, p) >= rem
          } => ConsumeRec(p, gcs.committedCount(ups(p)) - ch.consumed(p))
        })
    }
  }

  private def readyToFlush(ch: ChannelRt): Boolean =
    !ch.flushed && upstreamsDrained(ch)

  /** Every upstream channel is done and `ch` has consumed all it committed. */
  private def upstreamsDrained(ch: ChannelRt): Boolean = {
    val ups = upIdx(ch.stage)
    ups.indices.forall(p => gcs.channelDone(ups(p)) && ch.consumed(p) == gcs.committedCount(ups(p)))
  }

  // ---------------------------------------------------------------- kernels

  /** Input task body, shared by first reads and recovery re-reads: the
    * fused scan of one batch and its CPU cost.
    */
  private[core] def runInput(stage: Stage, batch: Array[R]): (Array[R], Double) = {
    val out = stage.op.asInstanceOf[InputOp].fuse(batch)
    (out, cost.taskS(batch.length, cost.scanNsPerRow, out.length, cfg.kernelFactor))
  }

  /** Symmetric hash join step: insert each row into its side's table, then
    * emit its pairs with the other side's rows of its key, in their arrival
    * order. Output multiset is independent of interleaving.
    */
  private def runJoinKernel(ch: ChannelRt, op: JoinOp, left: Boolean, rows: Array[R]): Array[R] = {
    val (key, own, other) =
      if (left) (op.lKey, ch.join.left, ch.join.right) else (op.rKey, ch.join.right, ch.join.left)
    val out = mutable.ArrayBuffer.empty[R]
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      val a = key.first(r)
      val b = key.second(r)
      own.add(a, b, r)
      var j = other.first(a, b)
      while (j >= 0) {
        val e = if (left) op.emit(r, other.row(j)) else op.emit(other.row(j), r)
        if (e != null) out += e
        j = other.next(j)
      }
      i += 1
    }
    out.toArray
  }

  private def runAggKernel(ch: ChannelRt, op: AggOp, rows: Array[R]): Unit = {
    val st = ch.agg
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      val accs = st.m.getOrElseUpdate(op.key(r), { st.rows += 1; new Array[Long](op.nAccs) })
      op.update(accs, r)
      i += 1
    }
  }

  private def runFlushKernel(ch: ChannelRt, op: AggOp): Array[R] =
    ch.agg.m.iterator.map { case (keys, accs) => op.finish(keys, accs) }.toArray

  // --------------------------------------------------------------- launches

  /** Consume task body, shared by first execution and replay: take the next
    * `rec.k` slices of upstream position `rec.p` from the watermark on, and
    * run the stage's kernel. A join's left side is positions 0 until C.
    */
  private def runConsume(ch: ChannelRt, rec: ConsumeRec): Unit = {
    val p = rec.p
    val from = ch.consumed(p)
    ch.consumed(p) = from + rec.k
    val rows = Array.tabulate(rec.k) { i =>
      val slice = ch.mailbox(p).remove(from + i)
      require(slice != null,
        s"consuming unavailable slice ${from + i} in ${decoded(ch.stage, ch.ch, rec)}")
      slice
    }.flatten
    val (out, nsPerRow) = stageOf(ch.stage).op match {
      case op: JoinOp => (runJoinKernel(ch, op, p < C, rows), cost.joinNsPerRow)
      case op: AggOp  => runAggKernel(ch, op, rows); (Array.empty[R], cost.aggNsPerRow)
      case _ => throw new IllegalStateException("input stage in consume path")
    }
    finishTask(ch, rec, out, cost.taskS(rows.length, nsPerRow, out.length, cfg.kernelFactor))
  }

  /** Flush task body, shared by first execution and replay. */
  private def runFlush(ch: ChannelRt): Unit = {
    val out = runFlushKernel(ch, stageOf(ch.stage).op.asInstanceOf[AggOp])
    ch.flushed = true
    finishTask(ch, FlushRec, out,
      cost.taskS(ch.agg.rows, cost.aggNsPerRow, out.length, cfg.kernelFactor))
  }

  /** Common task tail: charge CPU, then at CPU completion partition the
    * output, persist it, push slices, and commit the lineage —
    * Algorithm 1's execute / store / push / commit sequence. A task whose
    * seq is inside the committed prefix is a replay.
    */
  private def finishTask(ch: ChannelRt, rec: LineageRec, out: Array[R], cpuDur: Double): Unit = {
    val mySeq = ch.seq
    ch.seq += 1
    ch.busy = true
    metrics.tasks += 1
    if (mySeq < gcs.committedCount(ch.idx)) metrics.replayTasks += 1
    val epoch = ch.epoch
    val w = workers(ch.worker)
    val cpuEnd = w.cpu.use(sim.now, cpuDur)
    sim.at(cpuEnd) {
      if (ch.epoch != epoch || !workers(ch.worker).alive(sim.now)) {
        metrics.abortedTasks += 1
      } else {
        ch.busy = false
        completeTask(ch, epoch, mySeq, rec, out)
        tryLaunch(ch)
      }
    }
  }

  /** A task's output slices, one per consumer channel. */
  private[core] def sliceUp(stage: Stage, out: Array[R]): Array[Array[R]] = {
    if (consumerChs(stage.id).size == 1) Array(out)
    else {
      val parts = Array.fill(C)(mutable.ArrayBuffer.empty[R])
      out.foreach(r => parts(Engine.channelOf(stage.outHash(r), C)) += r)
      parts.map(_.toArray)
    }
  }

  private def completeTask(ch: ChannelRt, epoch: Int, mySeq: Int, rec: LineageRec,
                           out: Array[R]): Unit = {
    val stage = stageOf(ch.stage)
    val slices = if (stage.op.emits(rec)) sliceUp(stage, out) else Array.empty[Array[R]]
    val bytes = out.length.toLong * stage.schema.rowBytes

    checkOutput(ch.stage, ch.ch, mySeq, rec, out, "replay")
    val persistEnd = persist(ch.worker, ch.idx, mySeq, slices, bytes)

    val replay = mySeq < gcs.committedCount(ch.idx)

    // push downstream (Algorithm 1: abort commit if a destination is dead)
    val deadDest = slices.indices.exists(d => !live(consumerChs(ch.stage)(d).worker))
    if (deadDest && !replay) {
      held += HeldTask(ch.stage, ch.ch, epoch, mySeq, rec, slices, persistEnd)
      return
    }

    val lastNet = push(ch.worker, sim.now, ch.stage, ch.ch, mySeq, slices, epoch)

    if (replay) {
      poke(ch)
      return // lineage already committed before the failure
    }

    val commitAt = math.max(persistEnd, lastNet) + commitLatS
    scheduleCommit(ch, epoch, mySeq, rec, slices, commitAt)
  }

  /** Persist the output of task (idx, seq), written by `worker`: an upstream
    * backup on its disk, or a put to the reliable store of one object per
    * consumer channel (`idx / C` is the stage); nothing without either.
    * Tasks and re-reads both persist here. Returns when the write ends.
    */
  private[core] def persist(worker: Int, idx: Int, seq: Int, slices: Array[Array[R]],
                            bytes: Long): Double = cfg.ft match {
    case Wal | _: Ckpt =>
      copies(idx)(seq) = Copy(worker, slices, bytes)
      metrics.backupBytes += bytes
      workers(worker).disk.use(sim.now, cost.diskS(bytes))
    case Spool =>
      copies(idx)(seq) = Copy(Engine.Store, slices, bytes)
      metrics.spoolBytes += bytes
      workers(worker).storeLink.use(sim.now, cost.storeS(bytes, consumerChs(idx / C).size))
    case NoFt => sim.now
  }

  /** Replay identity: a task with lineage `rec` run again (`rerun`: a
    * replay or a re-read) must regenerate the output whose hash its first
    * run recorded. A consume task has taken its slices when this runs.
    */
  private[core] def checkOutput(stage: Int, ch: Int, seq: Int, rec: LineageRec, out: Array[R],
                                rerun: String): Unit = {
    val hashes = outputHash(gcs.index(stage, ch))
    val h2 = Rows.multisetHash(out)
    hashes(seq) match {
      case null => hashes(seq) = h2
      case h if h.longValue != h2 => throw new IllegalStateException(s"$rerun divergence at " +
        s"seq $seq: ${decoded(stage, ch, rec)}: $h vs $h2 — lineage replay is broken")
      case _ =>
    }
  }

  /** Lineage `rec` of a task of channel (stage, ch), for a message: a consume
    * task that has taken its slices reads as (upstream stage, channel, first
    * seq, count).
    */
  private def decoded(stage: Int, ch: Int, rec: LineageRec): String = rec match {
    case ConsumeRec(p, k) => s"consume (${stageOf(stage).upstreams(p / C)},${p % C}," +
      s"${channels(stage)(ch).consumed(p) - k},$k) at ($stage,$ch)"
    case r => s"$r at ($stage,$ch)"
  }

  /** Commit task (ch, mySeq)'s lineage at `at`. A flush, and an input
    * channel's last read, mark the channel done.
    */
  private[core] def scheduleCommit(ch: ChannelRt, epoch: Int, mySeq: Int, rec: LineageRec,
                                   slices: Array[Array[R]], at: Double): Unit = {
    sim.at(at) {
      if (barrier) {
        // coordinator holds the GCS lock during recovery planning
        sim.after(cost.planS)(scheduleCommit(ch, epoch, mySeq, rec, slices, sim.now))
      } else if (ch.epoch == epoch && workers(ch.worker).alive(sim.now)) {
        val markDone = rec match {
          case FlushRec => true
          case ReadRec => batchOf(ch.ch, mySeq + 1) >= inputBatches(ch.stage).size
          case _ => false
        }
        val becameDone = gcs.commit(ch.idx, mySeq, rec, markDone)
        if (becameDone) onChannelDone(ch)
        // an arrival may have been dropped against a worker that died
        // between push and delivery — committed outputs must reach their
        // (possibly reassigned) consumers. No-op on the normal path:
        // arrivals always precede the commit event.
        push(ch.worker, sim.now, ch.stage, ch.ch, mySeq, slices, epoch)
        // wake consumers (their inputs just became committed) and self
        consumerChs(ch.stage).foreach(poke)
        poke(ch)
        maybeFinish()
      }
    }
  }

  /** Send the output slices of task (ps, pc, seq) from worker `from`, or
    * from the store, starting no earlier than `start`, to every consumer
    * channel that still needs them and sits on a live worker. The final
    * stage's one consumer is the collector on the head node, so the query
    * result travels this path too. A consumer on the sending worker gets
    * its slice without using the NIC; a slice from the store is one object
    * over the consumer's own store link. Every first push, replay, re-read
    * and recovery re-push goes through here. Returns the last arrival time
    * (`start` if nothing was sent).
    */
  private[core] def push(from: Int, start: Double, ps: Int, pc: Int, seq: Int,
                         slices: Array[Array[R]], epoch: Int): Double = {
    val rowBytes = stageOf(ps).schema.rowBytes
    val p = slot(ps, pc)
    var last = start
    for (d <- slices.indices) {
      val rows = slices(d)
      val dest = consumerChs(ps)(d)
      if (needsSlice(dest, p, seq) && live(dest.worker)) {
        val bytes = rows.length.toLong * rowBytes
        val arrive =
          if (from == Engine.Store) workers(dest.worker).storeLink.use(start, cost.storeS(bytes, 1))
          else if (dest.worker == from) math.max(start, last) + 1e-6
          else workers(from).net.use(start, cost.netS(bytes))
        last = math.max(last, arrive)
        metrics.shuffleBytes += bytes
        val sentTo = dest.worker
        sim.at(arrive)(sliceArrive(dest, sentTo, ps, pc, seq, rows, epoch))
      }
    }
    last
  }

  /** A destination still needs output `seq` of its upstream position `p`
    * iff it has not consumed past it and has no copy in its mailbox.
    */
  private[core] def needsSlice(dest: ChannelRt, p: Int, seq: Int): Boolean =
    dest.consumed(p) <= seq && !dest.mailbox(p).contains(seq)

  private def sliceArrive(dest: ChannelRt, sentToWorker: Int, ps: Int, pc: Int,
                          seq: Int, rows: Array[R], prodEpochAtSend: Int): Unit = {
    // data addressed to a worker that died or lost the channel is dropped
    if (dest.worker != sentToWorker || !live(dest.worker)) return
    val p = slot(ps, pc)
    if (dest.consumed(p) > seq) return // already consumed (replay dup)
    // an uncommitted slice from a producer that has since been rewound is
    // stale: the producer's re-executed suffix may commit different content
    // under this sequence number
    val prod = channels(ps)(pc)
    if (prod.epoch != prodEpochAtSend && !gcs.isCommitted(prod.idx, seq)) return
    dest.arrive(p, seq, rows)
    poke(dest)
  }

  // ----------------------------------------------------------------- replay

  /** Replay the next logged lineage entry of a rewound channel. The GCS
    * supplies the exact lineage, so the channel "retraces its footsteps"
    * instead of choosing inputs dynamically (paper §IV-C).
    */
  private def tryReplay(ch: ChannelRt): Unit = gcs.rec(ch.idx, ch.seq) match {
    case rec: ConsumeRec => if (availRun(ch, rec.p) >= rec.k) runConsume(ch, rec)
    case FlushRec => runFlush(ch)
    case ReadRec =>
      throw new IllegalStateException("input channels replay via re-read jobs, not the channel")
  }

  // --------------------------------------------------------------- doneness

  private def checkDone(ch: ChannelRt): Unit = {
    if (gcs.channelDone(ch.idx)) return
    val stage = stageOf(ch.stage)
    stage.op match {
      case _: InputOp => // done is marked by the last read's commit, or here if there is no batch
        if (ch.ch >= inputBatches(ch.stage).size && gcs.markDone(ch.idx)) onChannelDone(ch)
      case _: JoinOp =>
        val complete = !ch.busy && gcs.committedCount(ch.idx) == ch.seq && upstreamsDrained(ch)
        if (complete && gcs.markDone(ch.idx)) onChannelDone(ch)
      case _: AggOp => // done is marked by the flush commit
    }
  }

  private def stageDone(s: Int): Boolean = (0 until C).forall(c => gcs.channelDone(gcs.index(s, c)))

  /** Wake the stage's consumer; stagewise mode releases the consumer stage
    * once every channel of its upstreams is done.
    */
  private def onChannelDone(ch: ChannelRt): Unit = {
    for (cs <- plan.consumer(ch.stage)) {
      if (!stageReady(cs) && stageOf(cs).upstreams.forall(stageDone))
        sim.after(cfg.stageOverheadS) { stageReady(cs) = true; channels(cs).foreach(poke) }
      channels(cs).foreach(poke)
    }
    maybeFinish()
  }

  private def maybeFinish(): Unit = {
    if (!finished && stageDone(plan.last)) {
      finished = true
      finishT = sim.now
    }
  }

  // ------------------------------------------------------------- checkpoint

  private def scheduleCkptTicks(): Unit = cfg.ft match {
    case Ckpt(interval, incremental) =>
      def tick(ch: ChannelRt): Unit = {
        if (finished || gcs.channelDone(ch.idx)) return
        if (!workers(ch.worker).alive(sim.now)) return
        if (ch.busy) { sim.after(0.05)(tick(ch)); return }
        val rows = if (incremental) ch.stateRows - ch.stateRowsAtCkpt else ch.stateRows
        val bytes = rows * stageOf(ch.stage).schema.rowBytes
        if (bytes > 0) {
          // the channel pauses while its state variable is serialized + put
          ch.busy = true
          metrics.ckptBytes += bytes
          val end = workers(ch.worker).storeLink.use(sim.now, cost.ckptS(bytes))
          val epoch = ch.epoch
          sim.at(end) {
            if (ch.epoch == epoch) {
              ch.busy = false
              ch.stateRowsAtCkpt = ch.stateRows
              poke(ch) // may both resume work and complete doneness
            }
          }
        }
        sim.after(interval)(tick(ch))
      }
      for (st <- channels; ch <- st if ch.join != null || ch.agg != null)
        sim.after(interval)(tick(ch))
    case _ =>
  }

  // ---------------------------------------------------------------- failure

  private def injectFailures(): Unit = failures.foreach { case (w, t) =>
    require(w >= 0 && w < cfg.workers, s"bad worker $w")
    sim.at(t) {
      if (!finished && workers(w).alive(sim.now)) {
        workers(w).deadAt = sim.now
        copies.foreach(_.filterInPlace(_.where != w))
        sim.after(cost.detectS) {
          if (!finished) {
            barrier = true
            sim.after(cost.planS) {
              Recovery.plan(this)
              barrier = false
              pokeAll()
            }
          }
        }
      }
    }
  }

  // -------------------------------------------------------------------- run

  /** Per upstream channel that `ch` has touched: consumed watermark and
    * mailbox count, for the deadlock report.
    */
  private def inputState(ch: ChannelRt): String = {
    val ups = stageOf(ch.stage).upstreams
    val touched = ch.consumed.indices.filter(p => ch.consumed(p) > 0 || ch.mailbox(p).count > 0)
    touched.map(p => s"(${ups(p / C)},${p % C})->${ch.consumed(p)}/${ch.mailbox(p).count}")
      .mkString("consumed/mbox=[", " ", "]")
  }

  def run(): RunResult = {
    injectFailures()
    scheduleCkptTicks()
    sim.at(0.0)(pokeAll())
    sim.run()
    if (!finished) {
      val undone = for {
        st <- channels; ch <- st if !gcs.channelDone(ch.idx)
      } yield s"(${ch.stage},${ch.ch}) seq=${ch.seq} committed=${gcs.committedCount(ch.idx)} " +
        s"busy=${ch.busy} worker=${ch.worker} " + inputState(ch)
      throw new IllegalStateException(s"engine deadlock in ${plan.name}:\n" + undone.mkString("\n"))
    }
    // each final channel's last committed task is its flush
    val rows = (0 until C).toVector.flatMap { c =>
      collector.mailbox(c)(gcs.committedCount(gcs.index(plan.last, c)) - 1)
    }
    RunResult(rows, plan.resultSchema, finishT, metrics, gcs.txns, gcs.lineageBytes)
  }
}

object Engine {
  /** The reliable store, as a copy's location and a push's source: no worker's id. */
  private[core] final val Store = -1

  /** Consumer channel, of `c`, of a row whose partitioning key hashes to `h`. */
  private[core] def channelOf(h: Int, c: Int): Int = {
    val m = h % c
    if (m < 0) m + c else m
  }
}
