package repro.bench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.data.TextGen
import repro.exp._
import repro.jobs.JobUtil

/** Table 10 + Figure 7: Spark join time broken into suggestion /
  * filtering / verification across dataset sizes, plus the three
  * algorithms' scaling on the local engine.
  */
class Table10Bench extends AnyFunSuite with BeforeAndAfterAll {

  lazy val spark: SparkSession = JobUtil.session("table10-bench")

  override def afterAll(): Unit = { spark.stop(); super.afterAll() }

  test("Table 10: suggestion/filtering/verification vs dataset size (Spark)") {
    ScalabilityExp.run(spark, TextGen.MedLite, Seq(300), theta = 0.9) // JIT/Spark warmup
    val sizes = Seq(1000, 2000, 3000)
    val rows = ScalabilityExp.run(spark, TextGen.MedLite, sizes, theta = 0.9) ++
      ScalabilityExp.run(spark, TextGen.WikiLite, sizes, theta = 0.95)
    println("== Table 10 ==")
    println("paper (s, MED θ=.9): 100K->300K strings: suggestion 14.8->15.0 (flat),")
    println("  filtering 23.1->123.3, verification 31.7->142.5 — both grow, suggestion constant")
    println(ScalabilityExp.format(rows))
    for (kind <- Seq("MED-lite", "WIKI-lite")) {
      val ks = rows.filter(_.dataset == kind).sortBy(_.size)
      // suggestion cost is sample-driven: must not scale with input size
      assert(ks.last.suggestMs <= ks.head.suggestMs * 4 + 500,
        s"$kind suggestion time should stay ~flat: ${ks.map(_.suggestMs)}")
      // filtering and verification grow with the dataset
      assert(ks.last.filterMs + ks.last.verifyMs > ks.head.filterMs + ks.head.verifyMs,
        s"$kind join work must grow with size")
      assert(ks.last.candidates > ks.head.candidates)
      assert(ks.last.results >= ks.head.results)
    }
  }

  test("Figure 7 companion: AU-Filter variants scale better than U-Filter") {
    ScalabilityExp.algoScaling(TextGen.MedLite, Seq(200), theta = 0.85) // warmup
    // one wall-time sample per size is noise-bound: take the median of three runs
    val runs = Seq.fill(3)(ScalabilityExp.algoScaling(TextGen.MedLite, Seq(300, 600), theta = 0.85))
    val rows = runs.transpose.map(rs => rs.head.copy(wallMs = rs.map(_.wallMs).sorted.apply(1)))
    println("== Figure 7 (companion, local engine, median of 3 runs) ==")
    println(ScalabilityExp.formatAlgoScaling(rows))
    def wall(algo: String, n: Int): Double =
      rows.find(r => r.algo == algo && r.size == n).get.wallMs
    // growth factor of AU-DP should not exceed U-Filter's by much
    val growthU = wall("U-Filter", 600) / math.max(1.0, wall("U-Filter", 300))
    val growthDp = wall("AU-Filter (DP)", 600) / math.max(1.0, wall("AU-Filter (DP)", 300))
    assert(growthDp <= growthU * 1.6, s"AU-DP growth $growthDp vs U $growthU")
  }
}
