package org.apache.spark

/** Spark keeps its listener bus package-private; the traced run needs to
  * wait for it so that each query's job events are complete when read.
  */
object PerfbenchAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
