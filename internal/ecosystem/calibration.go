package ecosystem

// This file is the single home of every calibration constant. Each number
// is annotated with the paper statement it reproduces; the measurement
// pipeline re-derives these aggregates from the generated artifacts, so the
// experiment harness checks amount to closed-loop validation.
//
// Band semantics are core.BandOf's: the paper's rank bands k=100, 1K, 10K,
// 100K as fractions of the list length.

// NumBands is the number of popularity bands.
const NumBands = 4

// Share assigns a probability mass to a provider.
type Share struct {
	Provider string
	Weight   float64
}

// ModeMix is a distribution over dependency modes for one band.
type ModeMix struct {
	Private, Single, Multi, Mixed float64
}

// DNSCalib calibrates website→DNS dependencies for one snapshot.
type DNSCalib struct {
	// UncharacterizedFrac is the fraction of sites whose nameserver pairs
	// defeat every heuristic (paper §3.1: 18% of the top-100K excluded).
	UncharacterizedFrac float64
	// Mix is the mode distribution per band over characterized sites.
	// 2020 targets (Fig 2): third-party [49,62,76,89]%, critical
	// [28,45,66,85]%, multi-third [13,10,6,3]%, private+third [8,7,4,1]%.
	Mix [NumBands]ModeMix
	// ImpactShares distributes single-third (critical) sites over providers;
	// weights are percentage points of characterized sites in band 3 terms
	// (Fig 5a impact labels: Cloudflare 23, AWS DNS 9, GoDaddy 8, ...).
	ImpactShares []Share
	// RedundantShares distributes provider slots of multi-third and mixed
	// sites (concentration minus impact in Fig 5a: e.g. Cloudflare C−I=1,
	// DNSMadeEasy high redundancy).
	RedundantShares []Share
	// Band0Redundant overrides RedundantShares in the top band: the paper
	// notes Dyn is the most popular provider among the top-100 with 17%
	// using it but only 2% critical.
	Band0Redundant []Share
	// SOAEqualFrac is the fraction of third-party sites whose zone SOA
	// fully points at the provider (paper: the twitter.com/Dyn case that
	// breaks SOA-only classification; such sites are only classifiable via
	// the concentration rule). Applied only to providers large enough to
	// clear the concentration threshold.
	SOAEqualFrac float64
	// VanityNSFrac is the fraction of private sites using a brand-alias
	// nameserver domain covered by the SAN list (youtube/*.google.com).
	VanityNSFrac float64
	// AliasRedundantFrac is the fraction of would-be multi-third sites that
	// actually use one entity under two NS domains (alicdn/alibabadns):
	// ground truth single-third.
	AliasRedundantFrac float64
	// TailProviders is the number of procedurally generated small providers
	// carrying TailShare of characterized sites; it shapes the Fig 6a CDF
	// (2016: 2705 providers cover 80%; 2020: 54).
	TailProviders int
	TailShare     float64
}

// CDNCalib calibrates website→CDN dependencies for one snapshot.
type CDNCalib struct {
	// UseFrac is the fraction of sites using any CDN, per band (2020:
	// 33.2% overall, Table 1; higher among popular sites).
	UseFrac [NumBands]float64
	// PrivateOnlyFrac is the fraction of CDN users on a private CDN only
	// (paper: 97.6% of CDN users use a third-party CDN → 2.4% private).
	PrivateOnlyFrac float64
	// CriticalFrac is, per band, the fraction of CDN users critically
	// dependent (Fig 3 / Obs 3: 43% in top-100 to 85% in top-100K).
	CriticalFrac [NumBands]float64
	// Shares distributes third-party CDN users (Fig 5b: CloudFront 30% of
	// CDN users, top-3 = 56%).
	Shares []Share
	// Band0Shares overrides in the top band (Akamai dominates the top-100).
	Band0Shares []Share
	// PrivateAliasFrac / ForeignSOAFrac split private-CDN sites into the
	// yahoo-yimg SAN case and the instagram foreign-SOA case.
	PrivateAliasFrac, ForeignSOAFrac float64
	// PrivateCDNThirdDNSFrac is the fraction of all sites with a private
	// CDN whose CDN zone critically uses a third-party DNS (paper §5.3:
	// 290 additional websites per 100K, e.g. twitter.com).
	PrivateCDNThirdDNSFrac float64
	// TailProviders carries TailShare of third-party CDN users (86 distinct
	// CDNs in 2020, 47 in 2016).
	TailProviders int
	TailShare     float64
}

// CACalib calibrates website→CA dependencies for one snapshot.
type CACalib struct {
	// HTTPSFrac per band (2020: 78.4% overall, Table 1; slightly higher for
	// popular sites, Fig 4).
	HTTPSFrac [NumBands]float64
	// PrivateCAFrac is the fraction of HTTPS sites on a private CA, per
	// band (Obs 5: 71% third-party in top-100 vs 77% in top-100K).
	PrivateCAFrac [NumBands]float64
	// Shares distributes third-party-CA HTTPS sites (Fig 5c: DigiCert top,
	// then Let's Encrypt, Sectigo in 2020).
	Shares []Share
	// StapleRate is the OCSP-stapling probability per CA name; CAs absent
	// from the map use DefaultStapleRate. Calibrated so ~22% of HTTPS sites
	// staple (17% of all sites, Obs 5) and Let's Encrypt/Sectigo users
	// staple more than DigiCert users (§4.2).
	StapleRate        map[string]float64
	DefaultStapleRate float64
	// PrivateStapleRate applies to private-CA sites.
	PrivateStapleRate float64
	// PrivateCAThirdCDNFrac is the fraction of all sites using a private CA
	// that itself uses a third-party CDN (paper §5.2: 32 sites per 100K,
	// e.g. microsoft.com). PrivateCAThirdDNSFrac likewise for DNS (§5.1:
	// 3 sites per 100K, e.g. godaddy.com).
	PrivateCAThirdCDNFrac, PrivateCAThirdDNSFrac float64
	// TailProviders carries TailShare of third-party HTTPS sites (59 CAs in
	// 2020, 70 in 2016).
	TailProviders int
	TailShare     float64
}

// Transition rates between the snapshots, per band, as fractions of the
// comparison population (sites on the 2016 list alive in 2020).
type Transitions struct {
	// DNS, Table 3.
	DNSPvtToSingle [NumBands]float64 // 2016 private -> 2020 single third
	DNSSingleToPvt [NumBands]float64 // 2016 single third -> 2020 private
	DNSRedToNoRed  [NumBands]float64 // 2016 redundant -> 2020 critical
	DNSNoRedToRed  [NumBands]float64 // 2016 critical -> 2020 redundant
	// CDN, Table 4 (fractions of comparison sites).
	CDNPvtToSingle [NumBands]float64
	CDNRedToNoRed  [NumBands]float64
	CDNNoRedToRed  [NumBands]float64
	// CDNStart / CDNStop: fraction of comparison sites that started (18.6%)
	// or stopped (6.8%) using a CDN between snapshots (§4.1 Obs 4).
	CDNStart, CDNStop float64
	// CA, Table 5 (fractions of sites HTTPS in both years).
	CAStapleToNo [NumBands]float64
	CANoToStaple [NumBands]float64
	// HTTPSAdoptFrac: fraction of comparison sites that adopted HTTPS
	// between 2016 and 2020 (23,196 of 96,200, §4.1 Obs 6); of these,
	// NewHTTPSStapleFrac staple in 2020 (11.9%).
	HTTPSAdoptFrac, NewHTTPSStapleFrac float64
	// DeadFrac is the fraction of the 2016 list gone by 2020 (§3: 3.8%).
	DeadFrac float64
}

// Calibration bundles everything the generator needs.
type Calibration struct {
	DNS   map[Snapshot]*DNSCalib
	CDN   map[Snapshot]*CDNCalib
	CA    map[Snapshot]*CACalib
	Trans Transitions
}

// DefaultCalibration returns the paper-calibrated tables.
func DefaultCalibration() *Calibration {
	return &Calibration{
		DNS: map[Snapshot]*DNSCalib{
			Y2020: {
				UncharacterizedFrac: 0.18,
				Mix: [NumBands]ModeMix{
					{Private: 0.51, Single: 0.28, Multi: 0.13, Mixed: 0.08},
					{Private: 0.38, Single: 0.45, Multi: 0.10, Mixed: 0.07},
					{Private: 0.24, Single: 0.66, Multi: 0.06, Mixed: 0.04},
					{Private: 0.11, Single: 0.85, Multi: 0.03, Mixed: 0.01},
				},
				ImpactShares: []Share{
					{"Cloudflare", 23}, {"AWS DNS", 9}, {"GoDaddy", 8},
					{"DNSMadeEasy", 1}, {"NS1", 0.7}, {"UltraDNS", 0.6},
					{"Dyn", 0.2}, {"Azure DNS", 2.2}, {"Google Cloud DNS", 2.0},
					{"Alibaba DNS", 1.8}, {"DNSPod", 1.6}, {"Hetzner DNS", 1.2},
					{"OVH DNS", 1.2}, {"Gandi", 1.0}, {"Namecheap DNS", 1.0},
					{"Wix DNS", 1.0}, {"Squarespace DNS", 0.9}, {"Linode DNS", 0.8},
					{"DigitalOcean DNS", 0.8}, {"Vercel DNS", 0.7}, {"Netlify DNS", 0.7},
					{"Akamai Edge DNS", 0.7}, {"Rackspace DNS", 0.6}, {"Yandex DNS", 0.6},
					{"HiChina", 0.6}, {"West263", 0.5}, {"DNSimple", 0.5},
					{"easyDNS", 0.5}, {"ClouDNS", 0.5}, {"Name.com DNS", 0.5},
					{"Hostgator DNS", 0.5}, {"Bluehost DNS", 0.5}, {"Dreamhost DNS", 0.5},
					{"Hover DNS", 0.4}, {"Porkbun DNS", 0.4}, {"Domain.com DNS", 0.4},
					{"Register.com DNS", 0.4}, {"Network Solutions DNS", 0.4},
					{"IONOS DNS", 0.4}, {"Strato DNS", 0.4}, {"Aruba DNS", 0.4},
					{"Loopia DNS", 0.3}, {"Active24 DNS", 0.3}, {"Websupport DNS", 0.3},
					{"Eurodns", 0.3}, {"InternetX", 0.3}, {"CSC DNS", 0.3},
					{"MarkMonitor DNS", 0.3}, {"SafeNames DNS", 0.3}, {"Instra DNS", 0.3},
					{"NameBright DNS", 0.3}, {"Epik DNS", 0.2}, {"Dynadot DNS", 0.2},
					{"Sav DNS", 0.2},
				},
				RedundantShares: []Share{
					{"Cloudflare", 1.0}, {"AWS DNS", 1.0}, {"GoDaddy", 0.5},
					{"DNSMadeEasy", 1.0}, {"NS1", 0.8}, {"UltraDNS", 0.6},
					{"Dyn", 0.4}, {"Azure DNS", 0.4}, {"Google Cloud DNS", 0.4},
					{"Verisign DNS", 0.4}, {"Neustar DNS", 0.3}, {"Akamai Edge DNS", 0.2},
				},
				Band0Redundant: []Share{
					{"Dyn", 17}, {"UltraDNS", 8}, {"AWS DNS", 6}, {"NS1", 5},
					{"DNSMadeEasy", 4}, {"Verisign DNS", 3}, {"Akamai Edge DNS", 3},
				},
				SOAEqualFrac:       0.85,
				VanityNSFrac:       0.04,
				AliasRedundantFrac: 0.08,
				TailProviders:      1500,
				TailShare:          9.3,
			},
			Y2016: {
				UncharacterizedFrac: 0.18,
				// Derived from 2020 via Table 3 deltas: critical −4.7pp at
				// k=100K, +2pp at k=100, etc.
				Mix: [NumBands]ModeMix{
					{Private: 0.50, Single: 0.30, Multi: 0.12, Mixed: 0.08},
					{Private: 0.43, Single: 0.395, Multi: 0.10, Mixed: 0.075},
					{Private: 0.295, Single: 0.605, Multi: 0.06, Mixed: 0.04},
					{Private: 0.157, Single: 0.803, Multi: 0.03, Mixed: 0.01},
				},
				// 2016 is much flatter (Fig 6a: 2705 providers for 80% of
				// sites vs 54 in 2020); top-3 impact 29.3% (§4.2 Obs 8).
				ImpactShares: []Share{
					{"Cloudflare", 11.5}, {"AWS DNS", 9.5}, {"GoDaddy", 8.3},
					{"Dyn", 1.2}, {"DNSMadeEasy", 0.9}, {"NS1", 0.5},
					{"UltraDNS", 0.7}, {"Azure DNS", 0.9}, {"Google Cloud DNS", 0.8},
					{"Alibaba DNS", 0.9}, {"DNSPod", 0.9}, {"Hetzner DNS", 0.6},
					{"OVH DNS", 0.6}, {"Gandi", 0.5}, {"Namecheap DNS", 0.5},
					{"Wix DNS", 0.3}, {"Squarespace DNS", 0.3}, {"Linode DNS", 0.4},
					{"DigitalOcean DNS", 0.4}, {"Rackspace DNS", 0.5},
					{"Yandex DNS", 0.4}, {"HiChina", 0.5}, {"West263", 0.4},
					{"DNSimple", 0.3}, {"easyDNS", 0.3}, {"ClouDNS", 0.3},
					{"Name.com DNS", 0.3}, {"Hostgator DNS", 0.4},
					{"Bluehost DNS", 0.4}, {"Dreamhost DNS", 0.4},
					{"Hover DNS", 0.3}, {"Porkbun DNS", 0.2}, {"Domain.com DNS", 0.3},
					{"Register.com DNS", 0.3}, {"Network Solutions DNS", 0.4},
					{"IONOS DNS", 0.3}, {"Strato DNS", 0.3}, {"Aruba DNS", 0.3},
					{"Loopia DNS", 0.2}, {"Active24 DNS", 0.2}, {"Websupport DNS", 0.2},
					{"Eurodns", 0.2}, {"InternetX", 0.2}, {"CSC DNS", 0.2},
					{"MarkMonitor DNS", 0.2}, {"SafeNames DNS", 0.2}, {"Instra DNS", 0.2},
					{"NameBright DNS", 0.2}, {"Epik DNS", 0.2}, {"Dynadot DNS", 0.2},
					{"Sav DNS", 0.2}, {"Verisign DNS", 0.4}, {"Neustar DNS", 0.4},
				},
				RedundantShares: []Share{
					{"Dyn", 1.6}, {"UltraDNS", 0.8}, {"AWS DNS", 0.8},
					{"NS1", 0.6}, {"DNSMadeEasy", 0.8}, {"GoDaddy", 0.5},
					{"Cloudflare", 0.5}, {"Verisign DNS", 0.5}, {"Neustar DNS", 0.4},
					{"Google Cloud DNS", 0.3},
				},
				Band0Redundant: []Share{
					{"Dyn", 17}, {"UltraDNS", 9}, {"AWS DNS", 5}, {"NS1", 5},
					{"DNSMadeEasy", 4}, {"Verisign DNS", 4}, {"Neustar DNS", 3},
				},
				SOAEqualFrac:       0.85,
				VanityNSFrac:       0.04,
				AliasRedundantFrac: 0.08,
				TailProviders:      5200,
				TailShare:          36.0,
			},
		},
		CDN: map[Snapshot]*CDNCalib{
			Y2020: {
				UseFrac:         [NumBands]float64{0.60, 0.52, 0.42, 0.325},
				PrivateOnlyFrac: 0.024,
				CriticalFrac:    [NumBands]float64{0.43, 0.60, 0.75, 0.85},
				Shares: []Share{
					{"Amazon CloudFront", 30}, {"Cloudflare CDN", 21},
					{"Fastly", 6}, {"Akamai", 5}, {"Incapsula", 3},
					{"StackPath", 2}, {"KeyCDN", 1.5}, {"jsDelivr", 1.5},
					{"CDN77", 1.2}, {"Azure CDN", 1.2}, {"Google Cloud CDN", 1.0},
					{"BunnyCDN", 0.9}, {"CacheFly", 0.8}, {"Limelight", 0.8},
					{"CDNetworks", 0.8}, {"ChinaNetCenter", 0.8}, {"ArvanCloud", 0.7},
					{"G-Core Labs", 0.7}, {"Medianova", 0.6}, {"Netlify CDN", 0.6},
					{"Vercel CDN", 0.6}, {"Sucuri", 0.6}, {"Alibaba CDN", 0.6},
					{"Tencent CDN", 0.5}, {"Baidu CDN", 0.5}, {"GoCache", 0.3},
					{"Zenedge", 0.3}, {"Kinx CDN", 0.3},
				},
				Band0Shares: []Share{
					{"Akamai", 40}, {"Amazon CloudFront", 18}, {"Fastly", 14},
					{"Cloudflare CDN", 8}, {"Limelight", 6}, {"CDNetworks", 4},
				},
				PrivateAliasFrac:       0.5,
				ForeignSOAFrac:         0.25,
				PrivateCDNThirdDNSFrac: 0.0029,
				TailProviders:          60,
				TailShare:              10.0,
			},
			Y2016: {
				UseFrac:         [NumBands]float64{0.55, 0.46, 0.36, 0.28},
				PrivateOnlyFrac: 0.03,
				CriticalFrac:    [NumBands]float64{0.49, 0.64, 0.77, 0.85},
				// 2016: Cloudflare on top, top-3 cover 73% of CDN users
				// (20.8% of all sites, §4.2 Obs 8).
				Shares: []Share{
					{"Cloudflare CDN", 35}, {"Amazon CloudFront", 24},
					{"Akamai", 14}, {"Fastly", 5}, {"Incapsula", 2},
					{"MaxCDN", 2}, {"EdgeCast", 1.5}, {"Limelight", 1.5},
					{"CDNetworks", 1.2}, {"ChinaNetCenter", 1.0},
					{"KeyCDN", 0.8}, {"CDN77", 0.8}, {"CacheFly", 0.6},
					{"Azure CDN", 0.6}, {"Google Cloud CDN", 0.5}, {"GoCache", 0.3},
					{"Zenedge", 0.3}, {"Kinx CDN", 0.3}, {"Netlify CDN", 0.3},
					{"jsDelivr", 0.3},
				},
				Band0Shares: []Share{
					{"Akamai", 42}, {"Fastly", 15}, {"Amazon CloudFront", 12},
					{"Cloudflare CDN", 9}, {"Limelight", 7}, {"EdgeCast", 5},
				},
				PrivateAliasFrac:       0.5,
				ForeignSOAFrac:         0.25,
				PrivateCDNThirdDNSFrac: 0.0029,
				TailProviders:          25,
				TailShare:              9.5,
			},
		},
		CA: map[Snapshot]*CACalib{
			Y2020: {
				HTTPSFrac:     [NumBands]float64{0.95, 0.92, 0.85, 0.774},
				PrivateCAFrac: [NumBands]float64{0.29, 0.27, 0.25, 0.228},
				Shares: []Share{
					{"DigiCert", 32}, {"Let's Encrypt", 19}, {"Sectigo", 11},
					{"Amazon CA", 5}, {"GlobalSign", 3}, {"GoDaddy CA", 2},
					{"Entrust", 1.5}, {"Actalis", 0.6}, {"Buypass", 0.4},
					{"SSL.com", 0.4}, {"Certum", 0.4}, {"TrustAsia", 0.3},
					{"SwissSign", 0.2}, {"QuoVadis", 0.2}, {"IdenTrust", 0.2},
					{"WISeKey", 0.1}, {"Internet2 CA", 0.1}, {"TeliaSonera CA", 0.1},
					// Legacy brands absorbed or shrunk after 2016 keep a
					// sliver so the Table 7 provider trends observe them in
					// both snapshots.
					{"GeoTrust", 0.1}, {"Thawte", 0.05}, {"RapidSSL", 0.05},
					{"StartCom", 0.05}, {"WoSign", 0.05}, {"Network Solutions CA", 0.05},
				},
				StapleRate: map[string]float64{
					"DigiCert": 0.15, "Let's Encrypt": 0.30, "Sectigo": 0.28,
					"Amazon CA": 0.08, "GlobalSign": 0.08,
				},
				DefaultStapleRate:     0.20,
				PrivateStapleRate:     0.30,
				PrivateCAThirdCDNFrac: 0.00032,
				PrivateCAThirdDNSFrac: 0.00003,
				TailProviders:         35,
				TailShare:             0.9,
			},
			Y2016: {
				HTTPSFrac:     [NumBands]float64{0.80, 0.70, 0.58, 0.46},
				PrivateCAFrac: [NumBands]float64{0.30, 0.28, 0.26, 0.24},
				// 2016: Sectigo (Comodo) leads, Symantec present, top-3
				// impact 26% (§4.2 Obs 8); Let's Encrypt impact 2.4%.
				Shares: []Share{
					{"Sectigo", 18}, {"Symantec", 8}, {"GoDaddy CA", 7},
					{"GeoTrust", 6}, {"DigiCert", 5}, {"GlobalSign", 5},
					{"Let's Encrypt", 3}, {"Entrust", 2}, {"Thawte", 2},
					{"RapidSSL", 2}, {"StartCom", 1.5}, {"WoSign", 1},
					{"Certum", 0.8}, {"Actalis", 0.5}, {"TrustAsia", 0.4},
					{"Network Solutions CA", 0.4}, {"SwissSign", 0.3},
					{"QuoVadis", 0.3}, {"IdenTrust", 0.2}, {"Buypass", 0.2},
					{"WISeKey", 0.1}, {"Internet2 CA", 0.1}, {"TeliaSonera CA", 0.1},
				},
				StapleRate: map[string]float64{
					"DigiCert": 0.20, "Let's Encrypt": 0.25,
				},
				DefaultStapleRate:     0.21,
				PrivateStapleRate:     0.28,
				PrivateCAThirdCDNFrac: 0.00030,
				PrivateCAThirdDNSFrac: 0.00003,
				TailProviders:         45,
				TailShare:             1.0,
			},
		},
		Trans: Transitions{
			DNSPvtToSingle: [NumBands]float64{0.000, 0.074, 0.098, 0.107},
			DNSSingleToPvt: [NumBands]float64{0.010, 0.016, 0.042, 0.060},
			DNSRedToNoRed:  [NumBands]float64{0.010, 0.016, 0.010, 0.005},
			DNSNoRedToRed:  [NumBands]float64{0.020, 0.019, 0.011, 0.005},

			CDNPvtToSingle: [NumBands]float64{0.000, 0.003, 0.008, 0.005},
			CDNRedToNoRed:  [NumBands]float64{0.030, 0.027, 0.012, 0.011},
			CDNNoRedToRed:  [NumBands]float64{0.090, 0.068, 0.030, 0.016},
			CDNStart:       0.186,
			CDNStop:        0.068,

			CAStapleToNo: [NumBands]float64{0.075, 0.062, 0.091, 0.097},
			CANoToStaple: [NumBands]float64{0.037, 0.147, 0.129, 0.099},

			HTTPSAdoptFrac:     0.24,
			NewHTTPSStapleFrac: 0.119,
			DeadFrac:           0.038,
		},
	}
}
