package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import repro.core._
import repro.data.TextGen

/** Runs every workload at tiny size, traced and untraced, and checks
  * the printed metrics and the output check itself.
  */
class SmokeSpec extends AnyFunSuite {

  private def tiny(w: Workload): Workload = w.copy(n = if (w.spark) 60 else 80, batches = 2)

  private def names(ms: Seq[Metric]): Seq[(String, String)] = ms.map(m => (m.name, m.unit)).sorted

  for (w <- Workload.all; trace <- Seq(false, true)) {
    test(s"${w.name} (trace=$trace) prints every metric with its unit and passes its checks") {
      val r = Bench.run(tiny(w), seed = 1L, seconds = 0.2, trace = trace, spanFile = None)
      val expected = if (trace) Metrics.perLayer else Metrics.endToEnd
      assert(names(r.metrics) == expected.map(m => (m.name, m.unit)).sorted)
      assert(r.correct && r.failed == 0 && r.attempted >= 3, r.notes.mkString("\n"))
      assert(r.metrics.forall(m => !m.value.isNaN && !m.value.isInfinite))
      assert(Main.json(r).contains("\"correct\": true"))
    }
  }

  test("BENCHMARK.json lists the same metrics and workloads as the benchmark") {
    val spec = new ObjectMapper().readTree(new java.io.File("../BENCHMARK.json"))
    def listed(key: String) =
      spec.get(key).elements().asScala.map(m => (m.get("name").asText, m.get("unit").asText)).toSeq.sorted
    assert(listed("end_to_end") == Metrics.endToEnd.map(m => (m.name, m.unit)).sorted)
    assert(listed("per_layer") == Metrics.perLayer.map(m => (m.name, m.unit)).sorted)
    assert(spec.get("workloads").elements().asScala.map(_.get("name").asText).toSeq ==
      Workload.all.map(_.name))
  }

  test("a fabricated dissimilar pair fails the certificate; a similar one passes") {
    val k = TextGen.context(TextGen.MedLite, 1L).knowledge
    def cert(s: String, t: String) =
      Certificate.holds(k, s, t, MeasureSet.TJS, Measures.DefaultQ, Usim.DefaultT, theta = 0.75)
    assert(!cert("quartz vellum", "bishop cradle"))
    assert(cert("quartz vellum", "quartz vellum"))
  }

  test("a reply that differs from the collection's first reply fails the check") {
    val s = new Setup(tiny(Workload.byName("med-tjs-local")), 1L)
    val c = new Checker(s, s.batches(0))
    val pairs = new Requests(s, s.batches(0)).untraced().pairs
    assert(c.ok(pairs))
    assert(!c.ok(pairs.drop(1) :+ ((0, 1, 1.0))))
  }
}
