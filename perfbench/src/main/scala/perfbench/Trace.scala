package perfbench

import java.io.DataInputStream
import java.nio.file.Path
import java.time.Duration
import jdk.jfr.Recording
import jdk.jfr.consumer.{RecordedEvent, RecordedStackTrace, RecordingFile}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Spark jobs of each query, from the job and task events Spark posts. A
  * query's jobs carry its tag as a local property, so they are attributed
  * exactly however the listener bus interleaves them.
  */
final class JobListener extends SparkListener {
  import JobListener.Job
  val jobs = mutable.Map.empty[Int, Job]
  private val stageQuery = mutable.Map.empty[Int, Int]
  val executorMs = mutable.Map.empty[Int, Double].withDefaultValue(0.0)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val q = Option(e.properties).flatMap(p => Option(p.getProperty(JobListener.Key)))
      .map(_.toInt).getOrElse(-1)
    jobs(e.jobId) = Job(q, e.time, e.time)
    e.stageIds.foreach(stageQuery(_) = q)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.end = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val q = stageQuery.getOrElse(e.stageId, -1)
    if (e.taskMetrics != null) executorMs(q) += e.taskMetrics.executorRunTime.toDouble
  }

  def jobsOf(q: Int): Seq[Job] = synchronized(jobs.values.filter(_.query == q).toSeq)

  /** Wall time covered by the union of the query's job spans. */
  def busyMs(q: Int): Double = {
    val spans = jobsOf(q).map(j => (j.start, j.end)).sortBy(_._1)
    var total = 0L; var curS = Long.MinValue; var curE = Long.MinValue
    spans.foreach { case (s, e) =>
      if (s > curE) { total += curE - curS; curS = s; curE = e }
      else curE = math.max(curE, e)
    }
    (total + (curE - curS)).toDouble
  }
}

object JobListener {
  val Key = "perfbench.query"

  final case class Job(query: Int, start: Long, var end: Long)

  /** Blocks until the listener has received every event posted so far. */
  def drain(sc: SparkContext): Unit = org.apache.spark.PerfbenchAccess.drainListeners(sc)
}

/** JFR execution and allocation sampling at a fixed period, with each sample
  * attributed to the innermost `repro.core` source file on its stack.
  */
final class Sampler(dir: Path, val periodMs: Int) {
  private val rec = new Recording()
  rec.enable("jdk.ExecutionSample").withPeriod(Duration.ofMillis(periodMs))
  rec.enable("jdk.ObjectAllocationSample").`with`("throttle", "300/s")
  rec.start()

  def stop(): Seq[RecordedEvent] = {
    rec.stop()
    val file = dir.resolve("trace.jfr")
    rec.dump(file)
    rec.close()
    try RecordingFile.readAllEvents(file).asScala.toSeq
    finally java.nio.file.Files.delete(file)
  }
}

object Sampler {
  val CorePackage = "repro.core."
  val Spark = "spark"
  val Other = "other"

  /** Where a stack was when sampled: the source file (without `.scala`) of
    * the topmost `repro.core` frame, or `spark` when a Spark frame comes
    * first, or `other` when neither occurs.
    */
  def classify(st: RecordedStackTrace): String = {
    if (st == null) return Other
    val it = st.getFrames.iterator()
    while (it.hasNext) {
      val f = it.next()
      val m = f.getMethod
      if (m != null && m.getType != null) {
        val cls = m.getType.getName
        if (cls.startsWith(CorePackage)) return module(cls)
        if (cls.startsWith("org.apache.spark.")) return Spark
      }
    }
    Other
  }

  private val modules = mutable.Map.empty[String, String]

  /** Source file of a class, read from its class file's `SourceFile`
    * attribute, so new or moved classes are attributed without a table.
    */
  def module(className: String): String = {
    val outer = className.takeWhile(_ != '$')
    modules.getOrElseUpdate(outer, sourceFile(outer).map(_.stripSuffix(".scala"))
      .getOrElse(outer.stripPrefix(CorePackage)))
  }

  private def sourceFile(cls: String): Option[String] = {
    val in = getClass.getClassLoader.getResourceAsStream(cls.replace('.', '/') + ".class")
    if (in == null) return None
    val d = new DataInputStream(new java.io.BufferedInputStream(in))
    try {
      d.readInt(); d.readUnsignedShort(); d.readUnsignedShort()
      val n = d.readUnsignedShort()
      val utf8 = new Array[String](n)
      var i = 1
      while (i < n) {
        d.readUnsignedByte() match {
          case 1 => utf8(i) = d.readUTF()
          case 3 | 4 | 9 | 10 | 11 | 12 | 17 | 18 => d.skipBytes(4)
          case 5 | 6 => d.skipBytes(8); i += 1
          case 7 | 8 | 16 | 19 | 20 => d.skipBytes(2)
          case 15 => d.skipBytes(3)
          case t => throw new IllegalStateException(s"constant pool tag $t in $cls")
        }
        i += 1
      }
      d.skipBytes(6)
      d.skipBytes(2 * d.readUnsignedShort())
      def skipMembers(): Unit = (0 until d.readUnsignedShort()).foreach { _ =>
        d.skipBytes(6)
        (0 until d.readUnsignedShort()).foreach { _ => d.skipBytes(2); d.skipBytes(d.readInt()) }
      }
      skipMembers(); skipMembers()
      (0 until d.readUnsignedShort()).iterator.map { _ =>
        val name = utf8(d.readUnsignedShort()); val len = d.readInt()
        if (name == "SourceFile") Some(utf8(d.readUnsignedShort())) else { d.skipBytes(len); None }
      }.collectFirst { case Some(s) => s }
    } finally d.close()
  }
}
