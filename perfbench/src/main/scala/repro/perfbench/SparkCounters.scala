package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted}
import scala.collection.mutable

/** Per-stage task counters collected from outside the program through a
  * SparkListener: tasks, executor CPU and run time, shuffle bytes, spill.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  import SparkCounters.Stage

  private val stages = mutable.ArrayBuffer.empty[Stage]
  sc.addSparkListener(this)

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val i = e.stageInfo
    val m = i.taskMetrics
    val st =
      if (m == null) Stage(i.stageId, i.name, i.numTasks, 0L, 0L, 0L, 0L, 0L)
      else Stage(i.stageId, i.name, i.numTasks, m.executorCpuTime, m.executorRunTime,
        m.shuffleReadMetrics.totalBytesRead, m.shuffleWriteMetrics.bytesWritten,
        m.memoryBytesSpilled + m.diskBytesSpilled)
    stages.synchronized(stages += st)
  }

  /** Stages completed while `body` ran, after every event was delivered. */
  def during[A](body: => A): (A, Seq[Stage]) = {
    org.apache.spark.ListenerBusDrain(sc)
    val from = stages.synchronized(stages.length)
    val a = body
    org.apache.spark.ListenerBusDrain(sc)
    (a, stages.synchronized(stages.drop(from).toVector))
  }

  def stop(): Unit = sc.removeSparkListener(this)
}

object SparkCounters {
  final case class Stage(
      id: Int, name: String, tasks: Long, cpuNanos: Long, runMillis: Long,
      shuffleRead: Long, shuffleWrite: Long, spill: Long)
}
