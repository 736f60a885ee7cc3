package repro.core

import repro.ft.NoFt

/** The coordinator's failure-recovery routine — Algorithm 2 of the paper,
  * with pipelined parallel recovery (§III-B):
  *
  *  - every channel hosted on a dead worker is rewound and reassigned,
  *    round-robin over live workers, so rewound channels of *different
  *    stages* land on different machines and recover concurrently;
  *  - the required input partitions are the committed prefixes of every
  *    upstream channel of a rewound stage, processed in reverse topological
  *    order:
  *    a partition with a surviving copy is *re-pushed* from it (a backup
  *    is read from its owner's disk and pushed from there, a spooled copy
  *    is pushed from the store), lost input-stage partitions are *re-read*
  *    on arbitrary live workers (input tasks are stateless, so this part is
  *    data-parallel, as in Spark), and partitions lost together with their
  *    stateful producer are regenerated by that producer's own replay;
  *  - rewound stateful channels then re-execute their logged task sequence
  *    exactly (no dynamic input choice), restoring their pre-failure state
  *    and outputs, verified by output-hash comparison.
  *
  * Tasks whose commit was withheld because a downstream push hit the dead
  * worker (Algorithm 1's failure branch) are completed here: their stored
  * output is re-pushed to the reassigned channel and the lineage committed.
  */
object Recovery {

  def plan(e: Engine): Unit = {
    val now = e.sim.now
    if (e.cfg.ft == NoFt)
      throw new IllegalStateException(
        "worker failed with ft=none: the query must be restarted from scratch")

    val rewound = for {
      st <- e.channels; ch <- st if !e.workers(ch.worker).alive(now)
    } yield ch

    val live = e.workers.filter(_.alive(now)).map(_.id)
    require(live.nonEmpty, "all workers dead")
    var rr = e.rng.nextInt(live.size)
    def nextWorker(): Int = { val w = live(rr % live.size); rr += 1; w }

    // ---- rewind + reassign (stage-ascending order spreads stages out)
    for (ch <- rewound) {
      e.metrics.rewoundChannels += 1
      ch.epoch += 1
      ch.busy = false
      ch.flushed = false
      ch.clearInputs()
      ch.stateRowsAtCkpt = 0L
      ch.worker = nextWorker()
      val cc = e.gcs.committedCount(ch.idx)
      // Tasks past the committed prefix never committed: the post-replay
      // dynamic suffix may batch differently, so (a) their recorded output
      // hashes are stale and (b) their already-pushed slices sitting in
      // live consumers' mailboxes are stale — the rewound producer will
      // commit *different* content under the same sequence numbers. Purge
      // both. (This is the paper's "channels in the second class ignore
      // the recovered task's re-transmitted output" rule, enforced from
      // the consumer side for uncommitted outputs.) Nothing past the
      // channel's last task exists, so the purge truncates at `cc`.
      e.outputHash(ch.idx).truncate(cc)
      e.gcs.rewind(ch.idx) // and their commits buffered past a gap
      for (dch <- e.consumerChs(ch.stage)) dch.truncate(e.slot(ch.stage, ch.ch), cc)
      if (!e.plan.stages(ch.stage).stateful) {
        // stateless: committed reads are recovered data-parallel below;
        // the channel itself resumes with its remaining batches
        ch.seq = cc
      } else {
        // stateful: replays its committed lineage, seqs 0 until cc
        if (ch.join != null) ch.join = new JoinState else ch.agg = new AggState
        ch.seq = 0
      }
    }

    // ---- required input partitions: the committed prefix of every upstream
    // channel of a rewound stage. It holds everything the rewound channels'
    // lineage consumed, and the committed outputs they had not consumed yet
    // (their arrived copies died with the worker's mailbox). Re-push, re-read
    // or rewind each, in reverse topological (stage, channel, seq) order.
    val ups = rewound.flatMap(ch => e.plan.stages(ch.stage).upstreams).distinct.sorted.reverse
    for (us <- ups; uc <- 0 until e.C; s <- 0 until e.gcs.committedCount(e.gcs.index(us, uc))) {
      val i = e.gcs.index(us, uc)
      e.metrics.recoveredPartitions += 1
      Option(e.copies(i)(s)) match {
        case Some(c) => scheduleRePush(e, us, uc, s, c)
        case None =>
          e.plan.stages(us).op match {
            case _: InputOp => scheduleReRead(e, us, uc, s, nextWorker())
            case _ =>
              // lost together with its stateful producer: regenerated by the
              // producer's own replay (it is necessarily in the rewound set)
              val prod = e.channels(us)(uc)
              require(s >= prod.seq,
                s"partition ($us,$uc,$s) unrecoverable: no backup, producer not replaying")
          }
      }
    }

    resolveHeld(e)
  }

  /** Re-deliver partition (us, uc, s) from its copy, sending the slices
    * that some consumer still needs: a backup is read from its owner's disk
    * and pushed from the owner, a spooled copy is pushed from the store.
    */
  private def scheduleRePush(e: Engine, us: Int, uc: Int, s: Int, c: Copy): Unit = {
    e.metrics.repushJobs += 1
    val start =
      if (c.where == Engine.Store) e.sim.now
      else e.workers(c.where).disk.use(e.sim.now, e.cfg.cost.diskS(c.bytes))
    e.push(c.where, start, us, uc, s, c.slices, e.channels(us)(uc).epoch)
  }

  /** Re-execute a lost input read on an arbitrary live worker (input tasks
    * are stateless, so these recover data-parallel across the cluster).
    */
  private def scheduleReRead(e: Engine, us: Int, uc: Int, s: Int, worker: Int): Unit = {
    val i = e.gcs.index(us, uc)
    e.metrics.rereadJobs += 1
    val stage = e.plan.stages(us)
    val (out, cpu) = e.runInput(stage, e.inputBatches(us)(e.batchOf(uc, s)))
    e.checkOutput(us, uc, s, ReadRec, out, "re-read")
    val slices = e.sliceUp(stage, out)
    val bytes = out.length.toLong * stage.schema.rowBytes
    val cpuEnd = e.workers(worker).cpu.use(e.sim.now, cpu)
    e.sim.at(cpuEnd) {
      if (e.workers(worker).alive(e.sim.now)) {
        val dEnd = e.persist(worker, i, s, slices, bytes)
        e.push(worker, dEnd, us, uc, s, slices, e.channels(us)(uc).epoch)
      }
    }
  }

  /** Complete tasks whose downstream push failed against the dead worker:
    * re-push their stored output to the reassigned channels and commit.
    */
  private def resolveHeld(e: Engine): Unit = {
    val now = e.sim.now
    for (h <- e.held) {
      val ch = e.channels(h.stage)(h.ch)
      if (ch.epoch == h.epoch && e.workers(ch.worker).alive(now)) {
        val lastNet = e.push(ch.worker, now, h.stage, h.ch, h.seq, h.slices, ch.epoch)
        e.scheduleCommit(ch, ch.epoch, h.seq, h.rec, h.slices,
          math.max(lastNet, h.readyAt) + e.commitLatS)
      }
    }
    e.held.clear()
  }
}
