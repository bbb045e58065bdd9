//! Integrating two parties' purchase-order formats from their XSD files:
//! read both schemas, match them, inspect the uncertainty, and answer a
//! query — the full B2B scenario of the paper's introduction, starting
//! from the artifact real standards actually ship.
//!
//! ```sh
//! cargo run --release --example xsd_integration
//! ```

use uxm::prelude::*;

const SUPPLIER_XSD: &str = r#"<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="Order">
    <xs:complexType><xs:sequence>
      <xs:element name="BuyerParty">
        <xs:complexType><xs:sequence>
          <xs:element name="PartyName" type="xs:string"/>
          <xs:element name="ContactEMail" type="xs:string"/>
        </xs:sequence></xs:complexType>
      </xs:element>
      <xs:element name="OrderLine" maxOccurs="unbounded">
        <xs:complexType><xs:sequence>
          <xs:element name="LineNumber" type="xs:int"/>
          <xs:element name="Qty" type="xs:int"/>
          <xs:element name="UnitPrice" type="xs:decimal"/>
        </xs:sequence></xs:complexType>
      </xs:element>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>"#;

const BUYER_XSD: &str = r#"<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="PURCHASE_ORDER">
    <xsd:complexType><xsd:sequence>
      <xsd:element name="BUYER">
        <xsd:complexType><xsd:sequence>
          <xsd:element name="NAME" type="xsd:string"/>
          <xsd:element name="E_MAIL" type="xsd:string"/>
        </xsd:sequence></xsd:complexType>
      </xsd:element>
      <xsd:element name="PO_LINE" maxOccurs="unbounded">
        <xsd:complexType><xsd:sequence>
          <xsd:element name="LINE_NO" type="xsd:int"/>
          <xsd:element name="QUANTITY" type="xsd:int"/>
          <xsd:element name="UNIT_PRICE" type="xsd:decimal"/>
        </xsd:sequence></xsd:complexType>
      </xsd:element>
    </xsd:sequence></xsd:complexType>
  </xsd:element>
</xsd:schema>"#;

fn main() {
    // 1. Read both formats from XSD.
    let source = Schema::from_xsd(SUPPLIER_XSD).expect("supplier XSD");
    let target = Schema::from_xsd(BUYER_XSD).expect("buyer XSD");
    println!("supplier: {}", source.to_outline());
    println!("buyer:    {}\n", target.to_outline());

    // 2. Match, keep the uncertainty. The two parties' vocabularies are
    //    far apart (Order vs PURCHASE_ORDER), so accept weaker evidence.
    let matcher = Matcher {
        threshold: 0.45,
        ..Matcher::default()
    };
    let matching = matcher.match_schemas(&source, &target);
    println!("{} correspondences:", matching.capacity());
    for c in matching.correspondences() {
        println!(
            "  {:<30} ~ {:<35} {:.2}",
            source.path(c.source),
            target.path(c.target),
            c.score
        );
    }
    let mappings = PossibleMappings::top_h(&matching, 20);

    // 3. A supplier-side document, served through one query session in
    //    the buyer's vocabulary.
    let doc = Document::generate(&source, &DocGenConfig::small(), 3);
    let engine = QueryEngine::build(mappings, doc);
    println!(
        "\n{} possible mappings, {} c-blocks",
        engine.mappings().len(),
        engine.tree().block_count()
    );
    let q = TwigPattern::parse("PURCHASE_ORDER/PO_LINE[./QUANTITY]/UNIT_PRICE").unwrap();
    println!("\nbuyer query: {q}");
    let result = engine.run(&Query::ptq(q)).unwrap();
    let doc = engine.document();
    for (m, p) in result.match_probabilities().into_iter().take(5) {
        let price_node = *m.nodes.last().expect("non-empty");
        println!(
            "  p = {:.2}  {} = {}",
            p,
            doc.path(price_node),
            doc.text(price_node).unwrap_or("?")
        );
    }
}
