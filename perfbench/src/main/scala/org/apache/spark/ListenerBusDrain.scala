package org.apache.spark

/** Blocks until Spark's listener bus has delivered every posted event
  * (the bus is `private[spark]`, hence this package).
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
