package repro.core

/** Simulated-hardware parameters for the discrete-event cluster.
  *
  * The constructor holds what differs between the paper's clusters, and the
  * failure-handling delays that tests shorten for tiny data. Its defaults
  * are the 4 × r6id.2xlarge cluster: instance-attached NVMe, a ~12.5 Gbps
  * NIC, and S3/HDFS "reliable store" writes that pay a per-object latency —
  * the mechanism behind spooling overhead growing with cluster size (paper
  * §V-C). The body holds the model's constants, the same on every cluster.
  *
  * `volumeScale` maps the synthetic SF (0.01 / 0.1) onto paper-scale data
  * volumes (SF100) for *timing only*: row counts and byte counts are
  * multiplied by it wherever a duration is computed, while the actual data
  * content (used for correctness) is untouched: SF 0.1 times like SF100.
  */
final case class CostParams(
  coresPerWorker: Int = 8,
  // fixed cost to schedule/launch one task (GCS poll, dispatch)
  taskOverheadS: Double = 0.004,
  // NIC uplink per worker
  netBytesPerS: Double = 1.4e9,
  // instance-attached NVMe (upstream backup)
  diskBytesPerS: Double = 0.85e9,
  // reliable store (S3 / HDFS): bandwidth + per-object latency
  storeBytesPerS: Double = 5.5e8,
  storePutLatencyS: Double = 0.012,
  // failure handling
  detectS: Double = 2.0,
  planS: Double = 0.3,
) {
  val volumeScale: Double = 1000.0
  // latency of one NIC message, on every instance size
  val netMsgLatencyS: Double = 0.0005
  // per-row kernel costs (ns), before the per-system kernelFactor
  val scanNsPerRow: Double = 60.0
  val joinNsPerRow: Double = 110.0
  val aggNsPerRow: Double = 70.0
  val outNsPerRow: Double = 25.0
  // TaskManagers poll the GCS for work on this quantum (paper §IV-B);
  // consume tasks batch everything that accumulated since the last poll,
  // which is what keeps dynamic batching coarse-grained
  val pollIntervalS: Double = 0.05
  // GCS (Redis on head): one transaction per task commit
  val gcsTxnS: Double = 0.0008
  // checkpoint serialization cost per byte (ns)
  val ckptNsPerByte: Double = 0.8

  /** Seconds of CPU for one task: launch overhead, `inRows` input rows at
    * `nsPerRow`, then `outRows` output rows at `outNsPerRow`.
    */
  def taskS(inRows: Long, nsPerRow: Double, outRows: Long, kernelFactor: Double): Double =
    taskOverheadS + inRows * volumeScale * nsPerRow * kernelFactor / 1e9 +
      outRows * volumeScale * outNsPerRow * kernelFactor / 1e9

  def diskS(bytes: Long): Double = bytes * volumeScale / diskBytesPerS

  def netS(bytes: Long): Double = netMsgLatencyS + bytes * volumeScale / netBytesPerS

  def storeS(bytes: Long, objects: Int): Double =
    objects * storePutLatencyS + bytes * volumeScale / storeBytesPerS

  def ckptS(bytes: Long): Double =
    bytes * volumeScale * ckptNsPerByte / 1e9 + storeS(bytes, 1)
}

object CostParams {
  /** Paper cluster presets. Total vCPUs match the paper's configurations:
    * 4 × r6id.2xlarge (8 vCPU), 16 × r6id.xlarge (4 vCPU), 32 × r6id.xlarge.
    * xlarge instances get half the NIC and NVMe bandwidth of 2xlarge, and
    * pay proportionally more per small shuffle object (the paper's
    * "HDFS efficiency markedly decreases with smaller partitions").
    */
  val fourWorkers: CostParams = CostParams()
  val sixteenWorkers: CostParams = CostParams(
    coresPerWorker = 4, netBytesPerS = 0.7e9, diskBytesPerS = 0.7e9,
    taskOverheadS = 0.006, storeBytesPerS = 2.2e8, storePutLatencyS = 0.018)
  val thirtyTwoWorkers: CostParams = sixteenWorkers
}
