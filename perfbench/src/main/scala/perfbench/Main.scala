package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import java.time.Instant
import jdk.jfr.consumer.RecordedEvent
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Random, Success, Try}

/** One run of one workload: a single client sends each query only after the
  * previous one returned (closed loop) and checks every answer.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir>
  * }}}
  * With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
  * runs the loop untraced and then traced, and prints the per-layer metrics.
  * The last line of standard output is the result as one JSON object.
  */
object Main {

  val Master = "local[*]"
  val ShufflePartitions = 64
  /** Set-ups per run; `setup_s` is their median. */
  val SetupRepeats = 4
  /** Whole cycles over the queries that an untraced run always times. */
  val MinCycles = 2
  val SamplePeriodMs = 10
  val Modules = Seq("Agg", "Rects", "Accuracy", "Discretize", "CellStats", "SplitHeuristic",
                    "DSSearch", "Objective", "Geometry", "GridIndex", "GIDS",
                    "SweepBase", "MaxRS", "BruteForce")
  val Counters = Seq("DSSearch.spaces", "DSSearch.cells", "DSSearch.spark_discretizations",
                     "GIDS.cells_searched", "GIDS.ratio_searched")

  final case class Sample(query: Query, tag: Int, ms: Double, start: Instant, end: Instant,
                          gcMs: Double, answer: Option[Answer], failure: Option[String])

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = Workload.named(opt("workload"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val traced = opt("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace $t")
    }
    val work = Paths.get(opt("work")).toAbsolutePath
    Files.createDirectories(work)
    val spark = SparkSession.builder()
      .master(Master)
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val result =
      try Try(new Run(spark, workload, seed, seconds, traced, work).apply())
      finally spark.stop()
    result match {
      case Success(json) => println(json); System.exit(0)
      // Exit explicitly: threads left behind by a failed run must not keep the JVM up.
      case Failure(e) => e.printStackTrace(); System.exit(1)
    }
  }

  def percentile(sorted: IndexedSeq[Double], p: Double): Double = {
    val pos = p / 100 * (sorted.size - 1)
    val lo = math.floor(pos).toInt; val hi = math.ceil(pos).toInt
    sorted(lo) + (sorted(hi) - sorted(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = percentile(xs.sorted.toIndexedSeq, 50)

  /** The highest of these percentiles with at least ten samples beyond it;
    * p50 when there are too few samples for any of them.
    */
  def tailPercentile(n: Int): Double =
    Seq(99.9, 99.0, 95.0, 90.0, 75.0).find(p => n * (1 - p / 100) >= 10).getOrElse(50.0)

  def gcMs(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.toDouble).sum

  def json(metrics: Seq[(String, Double, String)], attempted: Int, failed: Int): String = {
    def num(v: Double) = if (v.isNaN || v.isInfinite) "0" else v.toString
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

import Main._

final class Run(spark: SparkSession, w: Workload, seed: Long, seconds: Double,
                traced: Boolean, work: Path) {
  private val sc = spark.sparkContext
  private val rng = new Random(seed)
  private var nextTag = 0

  private def log(s: String): Unit = Console.err.println(s"[perfbench] $s")

  def apply(): String = {
    val setupS = mutable.ArrayBuffer.empty[Double]
    var ready: Ready = null
    (1 to SetupRepeats).foreach { _ =>
      if (ready != null) ready.release()
      val s0 = System.nanoTime()
      ready = w.setup(spark, seed)
      setupS += (System.nanoTime() - s0) / 1e9
    }
    System.gc(); System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
    log(s"set-up s: ${setupS.map(s => f"$s%.2f").mkString(" ")}")

    val p0 = System.nanoTime()
    val queries = w.queries(ready)
    log(f"query inputs and references ${(System.nanoTime() - p0) / 1e9}%.1f s: " +
        queries.map(q => f"${q.name}=${q.exact.ms}%.0fms").mkString(" "))
    // Untimed: queries in order until each family (the name up to its first
    // '/') has run and the workload's warm-up time has passed. The first
    // query of a family runs several times slower while the JIT and Spark's
    // code generation warm, and the next ones slower until the JIT settles.
    val w0 = System.nanoTime()
    def family(q: Query) = q.name.takeWhile(_ != '/')
    val families = queries.map(family).toSet
    val warmed = mutable.Set.empty[String]
    val next = Iterator.continually(queries).flatten
    while (warmed != families || System.nanoTime() - w0 < w.warmupSeconds * 1e9) {
      val q = next.next()
      q.solve()
      warmed += family(q)
    }
    log(f"warm-up ${(System.nanoTime() - w0) / 1e9}%.1f s")

    // A traced run listens to Spark throughout, so that job counts can be
    // compared across both halves, but samples with JFR in the second only.
    val listener = if (traced) Some(new JobListener) else None
    listener.foreach(sc.addSparkListener)
    val untimed = if (traced) loop(queries, seconds / 2, 1) else loop(queries, seconds, MinCycles)
    val (tracedSamples, events) =
      if (!traced) (Seq.empty[Sample], Seq.empty[RecordedEvent])
      else {
        val sampler = new Sampler(work, SamplePeriodMs)
        val s = loop(queries, seconds / 2, 1)
        (s, sampler.stop())
      }
    listener.foreach { l => JobListener.drain(sc); sc.removeSparkListener(l) }
    val all = untimed ++ tracedSamples
    val failed = all.filter(_.failure.isDefined)

    val lat = untimed.map(_.ms).sorted.toIndexedSeq
    // The tail percentile follows from the samples every run is sure to have,
    // so that it names the same percentile in every run of a workload.
    val tailP = tailPercentile(lat.size min MinCycles * queries.size)
    val index = ready.index.map(i => Adapter.indexBytes(i) / 1e6).getOrElse(0.0)
    val approx = all.filter(s => s.query.delta > 0 && s.answer.isDefined && s.query.exact.score > 0)
      .map(s => s.answer.get.score / s.query.exact.score)
    val endToEnd = Seq(
      ("setup_s", median(setupS.toSeq), "s"),
      ("query_ms.p50", percentile(lat, 50), "ms"),
      ("query_ms.tail", percentile(lat, tailP), "ms"),
      ("qps", 1000.0 * lat.size / lat.sum, "1/s"),
      ("setup_heap_mb", heapMb, "MB"))

    println(s"workload=${w.name} seed=$seed n=${w.n} master=$Master " +
            s"spark.sql.shuffle.partitions=$ShufflePartitions cores=${Runtime.getRuntime.availableProcessors} " +
            s"clients=1 loop=closed traced=$traced")
    println(s"query mix: ${w.mix}")
    println(s"timed queries: ${lat.size} in ${untimed.map(_.query.name).distinct.size} distinct; " +
            f"query_ms.tail is p$tailP%s over ${lat.size} samples")
    endToEnd.foreach { case (n, v, u) => println(f"$n%-16s $v%.4f $u") }
    println(f"failed_frac      ${failed.size.toDouble / all.size}%.4f (${failed.size}/${all.size})")
    if (ready.index.isDefined) println(f"index_mb         $index%.4f MB")
    if (approx.nonEmpty) println(f"approx_quality.max ${approx.max}%.6f")
    failed.foreach(s => println(s"FAILED ${s.query.name}: ${s.failure.get}"))

    val metrics = listener match {
      case None => endToEnd
      case Some(l) =>
        perLayer(queries, untimed, tracedSamples, l, events) ++ Seq(
          ("index_mb", index, "MB"),
          ("approx_quality.max", if (approx.isEmpty) 0.0 else approx.max, "ratio"),
          ("failed_frac", failed.size.toDouble / all.size, "ratio"))
    }
    ready.release()
    json(metrics, all.size, failed.size)
  }

  /** Whole cycles over the queries, each in a fresh seeded order, so every
    * run times the same mix. A cycle starts while it is expected to end
    * within half a cycle of `budget` seconds; there are at least `minCycles`.
    */
  private def loop(queries: Seq[Query], budget: Double, minCycles: Int): Seq[Sample] = {
    val out = mutable.ArrayBuffer.empty[Sample]
    val start = System.nanoTime()
    var cycles = 0
    var lastCycle = 0.0
    def elapsed = (System.nanoTime() - start) / 1e9
    while (cycles < minCycles || elapsed + lastCycle / 2 <= budget) {
      cycles += 1
      val c0 = System.nanoTime()
      rng.shuffle(queries).foreach(q => out += once(q))
      lastCycle = (System.nanoTime() - c0) / 1e9
    }
    out.toSeq
  }

  private def once(q: Query): Sample = {
    val tag = nextTag; nextTag += 1
    sc.setLocalProperty(JobListener.Key, tag.toString)
    val gc0 = gcMs()
    val start = Instant.now()
    val t0 = System.nanoTime()
    val r = Try(q.solve())
    val ms = (System.nanoTime() - t0) / 1e6
    val end = Instant.now()
    val gc = gcMs() - gc0
    sc.setLocalProperty(JobListener.Key, null)
    log(f"${q.name} $ms%.0f ms")
    Sample(q, tag, ms, start, end, gc, r.toOption, check(q, r))
  }

  private def check(q: Query, r: Try[Answer]): Option[String] = r match {
    case Failure(e) => Some(s"threw $e")
    case Success(a) =>
      val tol = 1e-6 * math.max(1.0, math.abs(q.exact.score))
      lazy val rescored = q.exact.rescore(a.x, a.y)
      if (a.truncated) Some("stats.truncated is set")
      else if (q.delta == 0 && math.abs(a.score - q.exact.score) > tol)
        Some(s"score ${a.score} differs from reference ${q.exact.score}")
      else if (q.delta > 0 && a.score > (1 + q.delta) * q.exact.score + tol)
        Some(s"Theorem 3 broken: d_app ${a.score} > (1+${q.delta}) d_opt ${q.exact.score}")
      else if (q.delta > 0 && a.score < q.exact.score - tol)
        Some(s"score ${a.score} beats the exact reference ${q.exact.score}")
      else if (math.abs(rescored - a.score) > tol)
        Some(s"point (${a.x}, ${a.y}) re-scores to $rescored, reported ${a.score}")
      else None
  }

  private def perLayer(queries: Seq[Query], untimed: Seq[Sample], samples: Seq[Sample],
                       listener: JobListener,
                       events: Seq[RecordedEvent]): Seq[(String, Double, String)] = {
    val nq = samples.size.toDouble
    def perQuery(f: Sample => Double) = samples.map(f).sum / nq

    // Deterministic counters: every repetition of a query must give the same
    // values; the metric is their mean over the distinct queries.
    val counters = (untimed ++ samples).groupBy(_.query.name).map { case (name, ss) =>
      name -> ss.map(s => s.answer.map(_.counters).getOrElse(Map.empty[String, Double]) +
                          ("spark.jobs" -> listener.jobsOf(s.tag).size.toDouble)).distinct
    }
    val unstable = counters.filter(_._2.size > 1)
    unstable.foreach { case (n, cs) => println(s"COUNTERS DIFFER between repetitions of $n: ${cs.mkString(" | ")}") }
    def counter(k: String) = counters.values.map(_.head.getOrElse(k, 0.0)).sum / counters.size

    // JFR samples, each attributed to the traced query whose span holds it.
    val spans = samples.map(s => (s.start, s.end)).toArray
    def inSpan(t: Instant) = spans.exists { case (s, e) => !t.isBefore(s) && !t.isAfter(e) }
    val mainThread = Thread.currentThread().getId
    val byModule = mutable.Map.empty[String, Int].withDefaultValue(0)
    var mainSamples = 0; var sparkDriver = 0
    var allocBytes = 0.0
    events.foreach { e =>
      if (inSpan(e.getStartTime)) e.getEventType.getName match {
        case "jdk.ExecutionSample" =>
          val th = e.getThread("sampledThread")
          val onMain = th != null && th.getJavaThreadId == mainThread
          val where = Sampler.classify(e.getStackTrace)
          if (onMain) mainSamples += 1
          if (where == Sampler.Spark) { if (onMain) sparkDriver += 1 }
          else if (where != Sampler.Other) byModule(if (Modules.contains(where)) where else "core.other") += 1
        case "jdk.ObjectAllocationSample" => allocBytes += e.getLong("weight")
        case _ => ()
      }
    }
    val period = SamplePeriodMs.toDouble
    val busy = perQuery(s => listener.busyMs(s.tag))
    val wall = perQuery(_.ms)
    val tracedP50 = median(samples.map(_.ms)); val untracedP50 = median(untimed.map(_.ms))
    val byQuery = untimed.groupBy(_.query.name).values.map(ss => (ss.head.query.exact.ms, median(ss.map(_.ms))))
    log(s"samples: main=$mainSamples sparkDriver=$sparkDriver modules=${byModule.toSeq.sortBy(-_._2).mkString(" ")}")

    Seq(
      ("spark.jobs", counter("spark.jobs"), "count"),
      ("spark.busy_ms", busy, "ms"),
      ("spark.executor_ms", perQuery(s => listener.executorMs(s.tag)), "ms"),
      ("spark.driver_ms", sparkDriver * period / nq, "ms"),
      ("spark.driver.samples", sparkDriver.toDouble, "count")) ++
    (Modules :+ "core.other").flatMap(m => Seq(
      (s"$m.self_ms", byModule(m) * period / nq, "ms"),
      (s"$m.samples", byModule(m).toDouble, "count"))) ++
    Counters.map(k => (k, counter(k), if (k.endsWith("ratio_searched")) "ratio" else "count")) ++ Seq(
      ("counters.repeat_ok", if (unstable.isEmpty) 1.0 else 0.0, "bool"),
      ("jvm.gc_ms", perQuery(_.gcMs), "ms"),
      ("jvm.alloc_mb", allocBytes / 1e6 / nq, "MB"),
      ("unattributed_ms", wall - mainSamples * period / nq - busy, "ms"),
      ("ref_ms", queries.map(_.exact.ms).sum / queries.size, "ms"),
      ("speedup_vs_ref", byQuery.map(_._1).sum / byQuery.map(_._2).sum, "ratio"),
      ("tracing_overhead", tracedP50 / untracedP50, "ratio"))
  }
}
