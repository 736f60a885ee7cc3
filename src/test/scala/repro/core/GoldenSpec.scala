package repro.core

import repro.{SparkSpec, TestUtil}
import repro.baselines.{EngineRunner, Systems}
import repro.queries.{TpchData, TpchLite}

/** Bit-identity gate for the simulated numbers. For each representative
  * query at SF 0.005 it pins the raw bits of the simulated clock, every
  * [[Metrics]] counter and the GCS telemetry, under six systems: clean
  * 4-worker Quokka, 16-worker Quokka and 4-worker Spark-like with worker 1
  * killed at 50% of the clean run, 4-worker S3 spooling, clean and with
  * worker 1 killed at 50% (spooled recovery fetches every lost partition
  * from the store), and clean 4-worker incremental checkpointing every
  * 0.25 s (`ckptBytes` is computed from the state row counts). A change
  * to the engine's control state that keeps the event order and the
  * arithmetic leaves every line unchanged; a change that means to move
  * these numbers re-records them and says why.
  */
class GoldenSpec extends SparkSpec {
  private lazy val t = TpchData.load(spark, 0.005)

  private val fields = classOf[Metrics].getDeclaredFields.toVector.sortBy(_.getName)
  fields.foreach(_.setAccessible(true))

  /** `sim` is `doubleToRawLongBits(simSeconds)`; then the `Metrics` fields
    * in name order, `gcsTxns` and `gcsLineageBytes`.
    */
  private val header =
    ("query" +: "sim" +: fields.map(_.getName) :+ "txns" :+ "lineageBytes").mkString(" ")

  private def line(id: String, rr: RunResult): String =
    (id +: java.lang.Double.doubleToRawLongBits(rr.simSeconds).toString +:
      fields.map(_.get(rr.metrics).toString) :+ rr.gcsTxns.toString :+ rr.gcsLineageBytes.toString)
      .mkString(" ")

  private val systems: Vector[(String, EngineConfig, Boolean)] = Vector(
    ("quokka-4 clean", Systems.quokka(4), false),
    ("quokka-16 kill", Systems.quokka(16), true),
    ("spark-like-4 kill", Systems.sparkLike(4), true),
    ("quokka-spool-4 clean", Systems.quokkaSpool(4), false),
    ("quokka-spool-4 kill", Systems.quokkaSpool(4), true),
    ("quokka-ckpt-4 clean", Systems.quokkaCkpt(4, 0.25, incremental = true), false),
  )

  /** Recorded at the commit before the control state became dense; the
    * spool-kill lines at the commit before task bookkeeping was derived
    * from the (stage, channel, seq) name; the checkpoint lines at the
    * commit before join keys became columns. At SF 0.005 every query
    * finishes in under 2.7 simulated seconds, so the checkpoint interval is
    * 0.25 s: at 2.5 s no tick would find a channel still running and
    * `ckptBytes` would read 0.
    *
    * Three columns of the kill lines were re-recorded when the reliable
    * store became a copy location and spooled recovery went through
    * `Engine.push`; every `sim` value and every clean line stayed as it
    * was. `backupBytes` on the 16 `quokka-16 kill` and `spark-like-4 kill`
    * lines now also counts the backups that re-reads write (each delta is
    * the bytes those re-reads wrote). On the 8 `quokka-spool-4 kill` lines,
    * `repushJobs` counts each partition re-delivered from the store
    * (`repushJobs == recoveredPartitions`), and `shuffleBytes` counts the
    * slices those fetches delivered.
    */
  private val recordedHeader = "query sim abortedTasks backupBytes ckptBytes recoveredPartitions " +
    "replayTasks repushJobs rereadJobs rewoundChannels shuffleBytes spoolBytes tasks txns lineageBytes"
  private val golden: Map[String, Vector[String]] = Map(
    "quokka-4 clean" -> Vector(
      "q1 4603789786429867928 0 8544 0 0 0 0 0 0 8544 0 35 35 608",
      "q6 4603778939188479717 0 256 0 0 0 0 0 0 256 0 35 35 608",
      "q3 4608485910210636633 0 665360 0 0 0 0 0 0 665360 0 128 139 2448",
      "q10 4608554378549307674 0 318832 0 0 0 0 0 0 318832 0 173 191 3344",
      "q5 4611261470637765566 0 1069168 0 0 0 0 0 0 1069168 0 239 271 4656",
      "q7 4608302413882222548 0 590144 0 0 0 0 0 0 590144 0 251 283 4896",
      "q8 4613046444136346782 0 1780632 0 0 0 0 0 0 1780632 0 441 487 8688",
      "q9 4612601679101393864 0 2268632 0 0 0 0 0 0 2268632 0 316 347 6192",
    ),
    "quokka-16 kill" -> Vector(
      "q1 4615139733280126250 0 9072 0 15 7 14 1 2 9864 0 278 272 5232",
      "q6 4615138079011477409 0 272 0 15 7 14 1 2 256 0 278 272 5232",
      "q3 4618051456404102052 0 736192 0 468 48 438 2 6 702024 0 1492 1504 28672",
      "q10 4619358367641074862 0 339128 0 1268 102 1189 2 8 337856 0 3206 3194 61848",
      "q5 4621308271468489051 0 1144360 0 2242 177 2102 2 12 1133704 0 4976 4951 95740",
      "q7 4620979600175058426 0 662176 0 2007 166 1881 2 12 630872 0 4518 4505 86820",
      "q8 4622402240934395122 1 1916720 0 4329 323 4058 2 16 1896528 0 8688 8579 167052",
      "q9 4621410694381961037 1 2508336 0 2727 204 2556 3 12 2412768 0 6307 6253 121796",
    ),
    "spark-like-4 kill" -> Vector(
      "q1 4615035333161055113 0 10656 0 15 0 11 4 4 12504 0 89 89 1656",
      "q6 4615031663701877213 0 320 0 15 0 11 4 4 256 0 89 89 1656",
      "q3 4618954160439590979 0 818400 0 76 14 57 5 12 808328 0 274 287 5056",
      "q10 4620608610448198229 0 388432 0 133 28 100 5 16 388952 0 361 375 6512",
      "q5 4621531232781304456 0 1342352 0 207 46 156 5 24 1327392 0 548 574 9884",
      "q7 4621328434810178992 0 746936 0 214 47 162 5 24 735824 0 527 551 9424",
      "q8 4623781303290788904 1 2222736 0 270 60 205 5 32 2204848 0 687 727 12336",
      "q9 4622686422174740045 0 2892960 0 168 36 126 6 24 2827640 0 548 583 10080",
    ),
    "quokka-spool-4 clean" -> Vector(
      "q1 4604321122283671237 0 0 0 0 0 0 0 0 8544 8544 35 35 608",
      "q6 4604301674921643953 0 0 0 0 0 0 0 0 256 256 35 35 608",
      "q3 4610407321620642298 0 0 0 0 0 0 0 0 665360 665360 128 139 2448",
      "q10 4612185660052592826 0 0 0 0 0 0 0 0 318832 318832 205 223 3984",
      "q5 4615579465259515399 0 0 0 0 0 0 0 0 1069168 1069168 311 343 6096",
      "q7 4613657468140723971 0 0 0 0 0 0 0 0 590144 590144 251 283 4896",
      "q8 4618977613881214950 0 0 0 0 0 0 0 0 1780632 1780632 533 579 10528",
      "q9 4617526844768161213 0 0 0 0 0 0 0 0 2268632 2268632 392 423 7712",
    ),
    "quokka-spool-4 kill" -> Vector(
      "q1 4613993296958982821 1 0 0 8 0 8 0 2 10656 8544 37 36 628",
      "q6 4613986289767380780 1 0 0 8 0 8 0 2 256 256 37 36 628",
      "q3 4616937875012006429 1 0 0 52 6 52 0 6 829288 699152 139 139 2448",
      "q10 4617579958072721140 0 0 0 88 13 88 0 8 389720 320800 220 220 3924",
      "q5 4619658776927696150 0 0 0 141 22 141 0 12 1338592 1078768 321 321 5656",
      "q7 4618658203498347622 0 0 0 125 18 125 0 12 745328 606224 277 278 4796",
      "q8 4622321806692572012 0 0 0 221 49 221 0 16 2227456 1880168 524 511 9168",
      "q9 4621306518263213717 0 0 0 136 26 136 0 12 2841880 2389888 396 393 7112",
    ),
    "quokka-ckpt-4 clean" -> Vector(
      "q1 4603789786429867928 0 8544 624 0 0 0 0 0 8544 0 35 35 608",
      "q6 4603778939188479717 0 256 16 0 0 0 0 0 256 0 35 35 608",
      "q3 4608327787936633098 0 665360 55520 0 0 0 0 0 665360 0 124 135 2368",
      "q10 4608554378549307674 0 318832 59136 0 0 0 0 0 318832 0 173 191 3344",
      "q5 4613088956779855277 0 1069168 388216 0 0 0 0 0 1069168 0 238 270 4636",
      "q7 4609407633046265992 0 590144 518192 0 0 0 0 0 590144 0 251 283 4896",
      "q8 4613214667908623758 0 1780632 491104 0 0 0 0 0 1780632 0 409 455 8048",
      "q9 4613009533949787759 0 2268632 752088 0 0 0 0 0 2268632 0 324 355 6352",
    ),
  )

  for ((name, cfg, kill) <- systems) {
    test(s"$name: simulated clock, counters and GCS telemetry match the recorded values") {
      assert(header == recordedHeader, "Metrics fields changed: re-record the golden values")
      val got = TpchLite.representative.map { q =>
        val clean = EngineRunner.run(cfg, q, t)
        val rr =
          if (!kill) clean
          else {
            val r = EngineRunner.run(cfg, q, t, failures = Seq((1, clean.simSeconds * 0.5)))
            assert(TestUtil.canon(r.rows) == TestUtil.canon(clean.rows), s"${q.id} wrong result")
            r
          }
        line(q.id, rr)
      }
      val want = golden(name)
      val diff = got.zipAll(want, "(none)", "(none)").filter { case (g, w) => g != w }
      assert(diff.isEmpty, s"$name differs from the recorded values:\n" +
        diff.map { case (g, w) => s"  got  $g\n  want $w" }.mkString("\n") +
        "\nall lines:\n" + got.map(l => s"""      "$l",""").mkString("\n"))
    }
  }
}
