package repro

import java.security.MessageDigest
import org.apache.spark.sql.DataFrame
import repro.core.MeasureSet
import repro.data.TextGen
import repro.jobs.JobUtil
import repro.join.{LocalJoin, SigAlgo, SparkJoin}

/** One SHA-256 over `SparkJoin`'s outputs, to show that a refactor
  * changes none of them: compare the hash at the parent commit and at the
  * change.
  *
  * It covers `computeOrder`, self-join `candidates` as (sid, tid,
  * overlap), and self-joins and cross-joins (first 60% × last 60%, the
  * join building its own order) as (sid, tid, sim bits), for every
  * signature algorithm at τ 1 and 4, over the collections both perfbench
  * workloads generate at seeds 3 and 31 (`TextGen.context` and
  * `joinDataset` at seed·1000003 + batch). Records are sorted before they
  * are hashed, so row order does not count.
  *
  * {{{
  * sbt "Test/runMain repro.OutputDigest"
  * }}}
  */
object OutputDigest {

  private final case class Workload(kind: TextGen.Kind, n: Int, batches: Int, theta: Double)

  /** The collections and thresholds of `med-tjs-local` and `wiki-tjs-spark`. */
  private val workloads = Seq(
    Workload(TextGen.MedLite, 150, 24, 0.75),
    Workload(TextGen.WikiLite, 100, 8, 0.95))

  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("output-digest")
    import spark.implicits._
    def toDF(strings: IndexedSeq[String]): DataFrame =
      strings.zipWithIndex.map { case (s, i) => (i.toLong, s) }.toDF("id", "str")

    val sha = MessageDigest.getInstance("SHA-256")
    var records = 0L
    def put(section: String, lines: Seq[String]): Unit = {
      sha.update(s"$section ${lines.length}\n".getBytes("UTF-8"))
      for (line <- lines) sha.update(s"$line\n".getBytes("UTF-8"))
      records += lines.length
    }
    def triples(df: DataFrame, value: String): Seq[String] = df.collect().toSeq
      .map(r => (r.getAs[Long]("sid"), r.getAs[Long]("tid"), value match {
        case "sim" => java.lang.Double.doubleToLongBits(r.getAs[Double]("sim"))
        case col => r.getAs[Long](col)
      })).sorted.map { case (s, t, v) => s"$s $t $v" }

    var collections = 0
    for (w <- workloads; seed <- Seq(3L, 31L); b <- 0 until w.batches) {
      val ctx = TextGen.context(w.kind, seed * 1000003L + b)
      val strings = TextGen.joinDataset(ctx, w.n, seed * 1000003L + b).strings
      val k = ctx.knowledge
      val df = toDF(strings)
      val name = s"${w.kind.name} seed=$seed batch=$b"
      val order = SparkJoin.computeOrder(spark, df, k)
      put(s"$name order", order.toSeq.sortBy(_._2).map { case (key, r) => s"$r $key" })
      val side = (strings.length * 0.6).toInt
      val (left, right) = (toDF(strings.take(side)), toDF(strings.drop(strings.length - side)))
      for (algo <- SigAlgo.all; tau <- Seq(1, 4)) {
        val cfg = LocalJoin.Config(w.theta, tau, algo, MeasureSet.TJS)
        val clue = s"$name ${algo.label} τ=$tau"
        put(s"$clue candidates",
          triples(SparkJoin.candidates(spark, df, df, k, order, cfg, selfJoin = true), "overlap"))
        put(s"$clue self-join", triples(SparkJoin.join(spark, df, df, k, cfg, selfJoin = true,
          precomputedOrder = Some(order)), "sim"))
        put(s"$clue cross-join", triples(SparkJoin.join(spark, left, right, k, cfg), "sim"))
      }
      collections += 1
    }
    println(s"output digest: ${sha.digest().map(b => f"$b%02x").mkString} " +
      s"($records records, $collections collections)")
    spark.stop()
  }
}
